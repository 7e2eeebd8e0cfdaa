//! On-CPU time of a process or a thread.
//!
//! The timed figures of a run are CPU time, not wall time. On a guest
//! kernel with paravirtual steal accounting the scheduler's task clock
//! stops while the host runs something else on the vCPU, so CPU time
//! leaves out steal as well as waits for a CPU inside the guest. Those
//! two swing by tens of percent on a shared host from one minute to the
//! next, and would otherwise be most of the difference between runs.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU-time clock; any thread of this process may read it.
#[derive(Debug, Clone, Copy)]
pub struct Clock(i32);

impl Clock {
    /// The calling thread's CPU time.
    #[must_use]
    pub fn this_thread() -> Clock {
        let mut clock = 0;
        // SAFETY: `pthread_self` is always valid for the calling thread
        // and `clock` is a valid, writable clockid.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
        assert_eq!(rc, 0, "a live thread always has a CPU clock");
        Clock(clock)
    }

    /// Process `pid`'s CPU time, every thread together, dead ones
    /// included.
    ///
    /// # Errors
    ///
    /// Fails when the process is gone.
    pub fn of_pid(pid: u32) -> Result<Clock, String> {
        let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
        let mut clock = 0;
        // SAFETY: `clock` is a valid, writable clockid.
        let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
        if rc != 0 {
            return Err(format!("clock_getcpuclockid({pid}): error {rc}"));
        }
        Ok(Clock(clock))
    }

    /// Its reading in seconds.
    ///
    /// # Errors
    ///
    /// Fails when what it measures is gone.
    pub fn read(self) -> Result<f64, String> {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec (64-bit fields on
        // the 64-bit Linux targets this benchmark runs on).
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        if rc != 0 {
            return Err(format!("clock_gettime({}): {}", self.0, std::io::Error::last_os_error()));
        }
        Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

/// CPU seconds this process has used, all threads together.
#[must_use]
pub fn own_s() -> f64 {
    Clock(CLOCK_PROCESS_CPUTIME_ID).read().expect("the process clock is always readable")
}

/// CPU seconds the calling thread has used.
#[must_use]
pub fn thread_s() -> f64 {
    Clock(CLOCK_THREAD_CPUTIME_ID).read().expect("the thread clock is always readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clocks_of_one_thread_agree_and_advance_with_work() {
        let (own, pid) = (Clock::this_thread(), Clock::of_pid(std::process::id()).unwrap());
        let (a, b, c) = (thread_s(), own.read().unwrap(), pid.read().unwrap());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (d, e, f) = (thread_s(), own.read().unwrap(), pid.read().unwrap());
        assert!(d > a && e > b && f > c, "{a} {b} {c} {d} {e} {f}");
        assert!(((d - a) - (e - b)).abs() < 0.005, "two clocks of one thread");
        assert!(own_s() >= d, "the process clock holds the thread's time");
    }
}
