//! Pins the process to one CPU.
//!
//! On the 2-vCPU virtual machines this benchmark runs on, the two vCPUs
//! behave as SMT siblings of one physical core: a thread runs about 40%
//! slower whenever the other vCPU is busy. Left to the scheduler, the
//! seven threads of a run overlap differently from second to second and
//! every timing turns bimodal (15–36% spread between identical runs).
//! On one CPU they time-share, the sibling stays idle, and a run repeats.

#![allow(unsafe_code)]

extern "C" {
    // glibc, which std already links; declared here because the
    // workspace has no `libc` crate.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Restricts the calling thread — and every thread it spawns from now
/// on — to the highest-numbered CPU it is allowed to run on (the lowest
/// ones attract interrupts and kernel threads). Returns that CPU, or
/// `None` when the kernel refuses; the run then proceeds unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pins_and_spawned_threads_inherit() {
        // Runs on a thread of its own, so other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = super::pin_to_one_cpu().expect("affinity syscalls work on Linux");
            let child = std::thread::spawn(super::pin_to_one_cpu).join().unwrap();
            assert_eq!(child, Some(cpu), "a child thread sees only the pinned CPU");
        })
        .join()
        .unwrap();
    }
}
