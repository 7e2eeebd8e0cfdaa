//! The `faultline serve` process under test: spawn with pinned flags,
//! time set-up to the first healthy answer, scrape `/metrics`, read
//! its peak RSS, and drain it with SIGTERM.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{self, Conn};

/// The pinned server configuration of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// `--threads`: worker-pool threads.
    pub threads: usize,
    /// `--cache-bytes`: LRU byte budget.
    pub cache_bytes: usize,
    /// `--memo-max-n`: largest `n` of the `/v1/cr` lattice.
    pub memo_max_n: usize,
    /// `--queue`: admission-queue depth.
    pub queue: usize,
    /// `--timeout-secs`: per-request deadline.
    pub timeout_secs: u64,
    /// `FAULTLINE_THREADS` in the server's environment.
    pub faultline_threads: usize,
}

impl Flags {
    fn args(&self) -> Vec<String> {
        vec![
            "serve".to_owned(),
            "--addr=127.0.0.1:0".to_owned(),
            format!("--threads={}", self.threads),
            format!("--cache-bytes={}", self.cache_bytes),
            format!("--memo-max-n={}", self.memo_max_n),
            format!("--queue={}", self.queue),
            format!("--timeout-secs={}", self.timeout_secs),
        ]
    }
}

/// The set-up of one spawn, until `/healthz` answered.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// CPU seconds of the server process, every thread together.
    pub cpu_s: f64,
    /// Wall seconds from spawn.
    pub wall_s: f64,
}

/// A running single-shard server. Dropping it kills and reaps it.
pub struct Server {
    child: Child,
    /// Held open so the server's stderr writes never fail.
    _stderr: BufReader<ChildStderr>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns the server and waits for `/healthz`; returns it with its
    /// set-up time.
    ///
    /// # Errors
    ///
    /// Fails when the binary cannot start, never reports its address,
    /// or is not healthy within 30 s.
    pub fn spawn(bin: &Path, flags: &Flags, cpu: Option<usize>) -> Result<(Server, Setup), String> {
        let started = Instant::now();
        let mut command = Command::new(bin);
        if let Some(cpu) = cpu {
            // SAFETY: the hook only makes one async-signal-safe system
            // call between fork and exec.
            unsafe {
                command.pre_exec(move || crate::pin::pin_current_thread(cpu));
            }
        }
        let mut child = command
            .args(flags.args())
            .env(faultline_core::parallel::THREADS_ENV, flags.faultline_threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = match listening_addr(&mut stderr) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let server = Server { child, _stderr: stderr, addr };
        let healthz = client::wire("GET", "/healthz", "");
        loop {
            if matches!(Conn::new(&server.addr).send(&healthz), Ok(r) if r.status == 200) {
                let wall_s = started.elapsed().as_secs_f64();
                let cpu_s = server.cpu_clock()?.read()?;
                return Ok((server, Setup { cpu_s, wall_s }));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("server not healthy after 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The unlabelled samples of `/metrics`, by name.
    ///
    /// # Errors
    ///
    /// Fails when the scrape fails.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let response = Conn::new(&self.addr)
            .send(&client::wire("GET", "/metrics", ""))
            .map_err(|e| format!("metrics scrape failed: {e:?}"))?;
        if response.status != 200 {
            return Err(format!("metrics scrape answered {}", response.status));
        }
        let text = String::from_utf8_lossy(&response.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_owned(), value.trim().parse().ok()?))
            })
            .collect())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// Fails when `/proc` cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// The server's CPU clock, every thread together (see `cpu`).
    ///
    /// # Errors
    ///
    /// Fails when the server is gone.
    pub fn cpu_clock(&self) -> Result<crate::cpu::Clock, String> {
        crate::cpu::Clock::of_pid(self.child.id())
    }

    /// Drains the server with SIGTERM and reaps it.
    ///
    /// # Errors
    ///
    /// Fails when it does not exit 0 within 30 s (it is then killed).
    pub fn stop(mut self) -> Result<(), String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `pid` is our own unreaped child, so it cannot have
        // been recycled for another process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not drain".to_owned()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Reads the server's stderr up to its "listening on" line.
fn listening_addr(stderr: &mut BufReader<ChildStderr>) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server exited before it listened".to_owned());
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            return Ok(rest.split_whitespace().next().unwrap_or_default().to_owned());
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
///
/// # Errors
///
/// Fails when the file cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM"))?;
    Ok(kib / 1024.0)
}

/// Counter movement between two scrapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Deltas {
    /// `/v1/cr` memo-tier answers.
    pub memo_hits: f64,
    /// LRU hits.
    pub cache_hits: f64,
    /// LRU misses.
    pub cache_misses: f64,
    /// LRU insertions.
    pub cache_insertions: f64,
    /// LRU evictions: insertions minus the growth in live entries.
    pub cache_evictions: f64,
    /// Requests that joined another's flight.
    pub coalesced: f64,
    /// Worker-pool jobs.
    pub pool_jobs: f64,
    /// 503 answers from a full admission queue.
    pub pool_rejected: f64,
    /// 504 answers from expired deadlines.
    pub pool_timeouts: f64,
    /// Accepted connections, the closing scrape's own excluded.
    pub connections: f64,
    /// Requests served on a reused keep-alive connection.
    pub keepalive_reuses: f64,
}

impl Deltas {
    /// Deltas between a scrape `before` and one `after` a phase.
    #[must_use]
    pub fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Deltas {
        let d = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
        let insertions = d("faultline_cache_insertions_total");
        Deltas {
            memo_hits: d("faultline_cr_memo_hits_total"),
            cache_hits: d("faultline_cache_hits_total"),
            cache_misses: d("faultline_cache_misses_total"),
            cache_insertions: insertions,
            cache_evictions: insertions - d("faultline_cache_entries"),
            coalesced: d("faultline_coalesced_requests_total"),
            pool_jobs: d("faultline_pool_jobs_total"),
            pool_rejected: d("faultline_rejected_total"),
            pool_timeouts: d("faultline_timeout_total"),
            connections: d("faultline_connections_total") - 1.0,
            keepalive_reuses: d("faultline_keepalive_reuses_total"),
        }
    }

    /// Hits over lookups (0 without lookups).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0.0 {
            self.cache_hits / lookups
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_exclude_the_scrape_connection_and_derive_evictions() {
        let before: BTreeMap<String, f64> = [
            ("faultline_cache_insertions_total", 10.0),
            ("faultline_cache_entries", 8.0),
            ("faultline_connections_total", 3.0),
            ("faultline_cache_hits_total", 1.0),
            ("faultline_cache_misses_total", 10.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let mut after = before.clone();
        after.insert("faultline_cache_insertions_total".into(), 30.0);
        after.insert("faultline_cache_entries".into(), 12.0);
        after.insert("faultline_connections_total".into(), 9.0);
        after.insert("faultline_cache_misses_total".into(), 30.0);
        let d = Deltas::between(&before, &after);
        assert_eq!(d.cache_insertions, 20.0);
        assert_eq!(d.cache_evictions, 16.0, "20 inserted, entries grew by 4");
        assert_eq!(d.connections, 5.0, "the closing scrape's connection is not load");
        assert_eq!(d.hit_ratio(), 0.0);
    }
}
