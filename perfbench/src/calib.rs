//! Host-speed calibration: timed figures in reference seconds.
//!
//! CPU time (see `cpu`) leaves out steal, but not the host's own speed.
//! On a shared host the physical core under a vCPU changes from fast to
//! slow and back over seconds to minutes (a hyperthread sibling busy or
//! idle, clocks moving), and the same work took from 0.9 to 1.4 CPU
//! seconds in runs minutes apart. So a sampler thread, pinned to the
//! CPU the work runs on, wakes every [`PERIOD`] and times a fixed probe:
//! sorting a seeded set of floats and sweeping it once, branchy
//! cache-resident floating-point work like the kernel's. Its CPU time
//! over [`REFERENCE_S`] is the CPU's slowness at that moment, and the
//! work's CPU time between two samples counts divided by the mean
//! slowness of the two. The probe is not the program: a change to the
//! program moves reference seconds as it moves CPU seconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cpu;
use crate::requests::Rng;

/// CPU seconds one probe takes when the CPU runs at reference speed:
/// about its time on a 2-vCPU VM, so reference seconds read within
/// about 10% of CPU seconds there.
pub const REFERENCE_S: f64 = 0.000_85;
/// Floats the probe sorts (128 KiB).
const VALUES: usize = 16_384;
/// Time between samples.
const PERIOD: Duration = Duration::from_millis(50);

/// CPU seconds of one probe on the calling thread; `values` is scratch.
fn probe_s(values: &mut Vec<f64>) -> f64 {
    let start = cpu::thread_s();
    let mut rng = Rng::new(7, 7);
    values.clear();
    values.extend((0..VALUES).map(|_| rng.unit() * 100.0 - 50.0));
    values.sort_unstable_by(f64::total_cmp);
    let (mut sum, mut top) = (0.0f64, f64::NEG_INFINITY);
    for pair in values.windows(2) {
        let gap = pair[1] - pair[0];
        if gap > 1e-3 {
            sum += (pair[0] * 1.5 + 0.25).max(pair[1] * 0.75 - 1.0) / gap.sqrt();
        } else {
            top = top.max(pair[0]);
        }
    }
    std::hint::black_box((sum, top));
    cpu::thread_s() - start
}

/// The sampler's running account.
#[derive(Debug, Clone, Copy)]
struct Account {
    /// Work clock at the last sample, s.
    work_s: f64,
    /// Slowness at the last sample.
    slowness: f64,
    /// Reference seconds up to the last sample.
    reference_s: f64,
    samples: u64,
}

/// A running sampler converting a work clock to reference seconds.
pub struct Sampler {
    clock: cpu::Clock,
    account: Arc<Mutex<Account>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling on `cpu` (unpinned when `None`) for the work that
    /// `clock` measures.
    ///
    /// # Errors
    ///
    /// Fails when the clock cannot be read.
    pub fn start(clock: cpu::Clock, cpu: Option<usize>) -> Result<Sampler, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let account = Arc::new(Mutex::new(Account {
            work_s: clock.read()?,
            slowness: 1.0,
            reference_s: 0.0,
            samples: 0,
        }));
        let thread = {
            let (stop, account) = (Arc::clone(&stop), Arc::clone(&account));
            std::thread::spawn(move || {
                if let Some(cpu) = cpu {
                    // Unpinned, the figure is still a slowness, only of
                    // whichever CPU the thread lands on.
                    let _ = crate::pin::pin_current_thread(cpu);
                }
                let mut values = Vec::with_capacity(VALUES);
                let first = probe_s(&mut values) / REFERENCE_S;
                account.lock().expect("sampler lock").slowness = first;
                let _ = tx.send(());
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let slowness = probe_s(&mut values) / REFERENCE_S;
                    let Ok(work_s) = clock.read() else { break };
                    let mut a = account.lock().expect("sampler lock");
                    a.reference_s += (work_s - a.work_s) * 2.0 / (a.slowness + slowness);
                    a.work_s = work_s;
                    a.slowness = slowness;
                    a.samples += 1;
                }
            })
        };
        let sampler = Sampler { clock, account, stop, thread: Some(thread) };
        rx.recv().map_err(|_| "sampler did not start".to_owned())?;
        // Work before the first sample counts at the first slowness.
        let work_s = sampler.clock.read()?;
        sampler.account.lock().expect("sampler lock").work_s = work_s;
        Ok(sampler)
    }

    /// Reference seconds of the work so far; work since the last sample
    /// counts at that sample's slowness.
    ///
    /// # Errors
    ///
    /// Fails when the clock cannot be read.
    pub fn reference_s(&self) -> Result<f64, String> {
        let a = self.account.lock().expect("sampler lock");
        Ok(a.reference_s + (self.clock.read()? - a.work_s) / a.slowness)
    }

    /// The CPU's slowness at the last sample: its speed relative to the
    /// reference, to scale CPU seconds measured on another clock.
    #[must_use]
    pub fn slowness(&self) -> f64 {
        self.account.lock().expect("sampler lock").slowness
    }

    /// Samples taken so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.account.lock().expect("sampler lock").samples
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_follow_the_work_clock() {
        let sampler = Sampler::start(cpu::Clock::this_thread(), None).unwrap();
        let before = sampler.reference_s().unwrap();
        let start = cpu::thread_s();
        let mut x = 0u64;
        while cpu::thread_s() - start < 0.2 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        let after = sampler.reference_s().unwrap();
        assert!(after > before, "{before} {after}");
        // Whatever the host's speed, a slowness is a positive ratio near 1.
        let ratio = (after - before) / (cpu::thread_s() - start);
        assert!(ratio > 0.1 && ratio < 10.0, "ratio {ratio}");
        assert!(sampler.samples() >= 1, "a sample every {PERIOD:?}");
    }
}
