//! CPU placement for the serve workloads. On a small VM a request that
//! crosses vCPUs needs an inter-processor wake-up (a VM exit), and a
//! vCPU that idles halts and wakes late, so an unpinned generator and
//! server land on one or two vCPUs by chance and their timings jump
//! between levels from run to run. Both are pinned to one CPU, which
//! the yielding generator keeps busy and hands over whenever the server
//! has work.

/// Bits in the kernel's CPU mask we pass (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread (and threads and processes it creates
/// afterwards) to one CPU. Async-signal-safe: one system call, no
/// allocation, so it may run between fork and exec.
pub fn pin_current_thread(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}
