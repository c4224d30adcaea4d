//! CPU affinity for the stacks that have background threads.
//!
//! On a 2-core box the leader's writer shares the cores with every thread
//! the program starts. The follower copies the components a commit
//! touches — a CPU burst that begins while the leader is still inside
//! `apply_batch` — and the scheduler tends to wake it where it ran last.
//! If that is the writer's core, every commit waits out the burst; if
//! not, none does; and which it is stays put for minutes. Runs of the
//! same code then differ by a factor of five in `commit_ack_p50_us`.
//!
//! [`Split`] removes the coin toss: threads started while it is being
//! built inherit "every allowed CPU but the first", and the thread that
//! built it — the writer — then moves to the first. Linux only; anywhere
//! else, with fewer than two CPUs, or when the kernel refuses, it does
//! nothing and says so.

#[cfg(target_os = "linux")]
mod sys {
    /// Words in a `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;

    extern "C" {
        // glibc, which `std` already links.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // `cpusetsize` bytes and has no other effect.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; `false` if refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and
        // is only read; pid 0 names the calling thread. A refused or
        // empty mask makes the call fail without changing anything.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

/// The writer on one CPU, everything started meanwhile on the others.
pub struct Split {
    allowed: Vec<usize>,
    active: bool,
}

impl Split {
    /// Moves the calling thread onto every allowed CPU but the first, so
    /// that threads it starts from now on inherit that set.
    pub fn begin() -> Split {
        let allowed = sys::allowed();
        let active = allowed.len() >= 2 && sys::pin(&allowed[1..]);
        Split { allowed, active }
    }

    /// Moves the calling thread onto the first allowed CPU, alone.
    pub fn writer_takes_its_core(&mut self) {
        if self.active {
            self.active = sys::pin(&self.allowed[..1]);
        }
    }

    /// Whether the split is in force.
    pub fn active(&self) -> bool {
        self.active
    }
}

impl Drop for Split {
    fn drop(&mut self) {
        // Give the calling thread its whole set back, split or not.
        if self.allowed.len() >= 2 {
            sys::pin(&self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_started_during_the_split_stay_off_the_writers_cpu() {
        let before = sys::allowed();
        let mut split = Split::begin();
        if !split.active() {
            return; // one CPU, not Linux, or not permitted: nothing to check
        }
        let child = std::thread::spawn(sys::allowed).join().unwrap();
        assert_eq!(child, before[1..].to_vec());
        split.writer_takes_its_core();
        assert_eq!(sys::allowed(), before[..1].to_vec());
        drop(split);
        assert_eq!(sys::allowed(), before, "the full set comes back");
    }
}
