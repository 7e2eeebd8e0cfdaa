//! `perfbench`: one command for the faultline benchmark.
//!
//! ```text
//! perfbench --faultline <path> --workload <optimize|serve-hot|serve-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result: the end-to-end
//! metrics untraced, the per-layer metrics traced. `run.sh` builds the
//! release binaries from source and calls this with `--faultline`.

mod calib;
mod client;
mod cpu;
mod kernel;
mod loadgen;
mod optimize;
mod pin;
mod replay;
mod report;
mod requests;
mod serve;
mod server;
mod stats;

use std::path::PathBuf;

/// `FAULTLINE_THREADS` of this process: the optimizer's rounds run on
/// one thread, so a study's time depends on one vCPU, not on two being
/// free at once. Each serve workload pins the server's own.
const FAULTLINE_THREADS: usize = 1;

struct Args {
    faultline: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut faultline, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--faultline" => faultline = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or(format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        faultline: faultline.ok_or("--faultline is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pinned before any parallel call reads it.
    std::env::set_var(faultline_core::parallel::THREADS_ENV, FAULTLINE_THREADS.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}; nproc {nproc}, FAULTLINE_THREADS={FAULTLINE_THREADS}",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );
    let result = match args.workload.as_str() {
        "optimize" => optimize::run_workload(args.seed, args.seconds, args.trace),
        "serve-hot" | "serve-cold" => {
            let spec = if args.workload == "serve-hot" { &serve::HOT } else { &serve::COLD };
            let workers = spec.generator_threads.min(nproc);
            eprintln!(
                "perfbench: FAULTLINE_THREADS={} faultline serve --threads={} --cache-bytes={} --memo-max-n={} \
                 --queue={} --timeout-secs={}; {workers} generator threads",
                spec.flags.faultline_threads,
                spec.flags.threads,
                spec.flags.cache_bytes,
                spec.flags.memo_max_n,
                spec.flags.queue,
                spec.flags.timeout_secs
            );
            serve::run_workload(spec, &args.faultline, args.seed, args.seconds, args.trace, workers)
        }
        other => Err(format!("unknown workload {other} (optimize, serve-hot, serve-cold)")),
    };
    match result {
        Ok(report) => println!("{}", report.to_json(args.trace)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
