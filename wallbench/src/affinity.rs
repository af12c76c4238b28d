//! Pins the benchmark to one CPU before it starts anything it times.
//! Child processes and threads inherit the mask, so every set-up, every
//! replay and every query thread the service spawns runs on that CPU.
//!
//! The service runs one query at a time in wall time, each on a thread
//! of its own. Unpinned, that thread often starts on the other vCPU,
//! which the host first has to wake from halt; on a shared host that
//! wake-up, not the program, set most of the replay-to-replay spread.

use std::io;
use std::mem::size_of_val;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Restrict the calling thread, and what it starts from now on, to the
/// highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(cpu)
}
