//! Thread placement: the program thread on the first allowed CPU, the
//! runtime's delegate threads on the others.
//!
//! Left to the scheduler, the delegate sometimes shares the program
//! thread's CPU for a whole process. That halves a `txn-fine` pass
//! (about 16 ms instead of 36 ms on the 2-CPU host: no cache line moves
//! between cores) and makes runs flip between two modes. Delegate
//! threads inherit the affinity of the thread that spawns them, so the
//! program thread narrows its own mask to the delegate CPUs while the
//! runtime is built, then moves itself to its own CPU.

use std::sync::OnceLock;

use ss_core::{Runtime, RuntimeBuilder};

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc lays it out (1024 CPUs).
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; 16];
        // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer and
        // `size` is its exact byte length; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` points to a valid `cpu_set_t`-sized buffer of the
        // given byte length; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type CpuSet = [u64; 16];
    pub fn get() -> Option<CpuSet> {
        None
    }
    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The CPUs this process may use, split into the program thread's CPU
/// and the delegates' CPUs.
pub struct Placement {
    all: sys::CpuSet,
    program: sys::CpuSet,
    delegates: sys::CpuSet,
    pinned: bool,
}

impl Placement {
    /// Reads the allowed CPUs. With fewer than two, nothing is pinned.
    pub fn detect() -> Placement {
        let all = sys::get().unwrap_or([0; 16]);
        let mut program = [0u64; 16];
        let mut delegates = [0u64; 16];
        let mut first = true;
        for cpu in 0..16 * 64 {
            let (w, b) = (cpu / 64, 1u64 << (cpu % 64));
            if all[w] & b != 0 {
                if first {
                    program[w] |= b;
                    first = false;
                } else {
                    delegates[w] |= b;
                }
            }
        }
        let pinned = delegates.iter().any(|&w| w != 0);
        Placement {
            all,
            program,
            delegates,
            pinned,
        }
    }

    /// Whether threads are being pinned.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Builds `b` with its delegate threads on the delegate CPUs and
    /// leaves the calling (program) thread on its own CPU.
    pub fn build(&self, b: RuntimeBuilder) -> Runtime {
        if self.pinned {
            sys::set(&self.delegates);
        }
        let rt = b.build().expect("build runtime");
        if self.pinned {
            sys::set(&self.program);
        }
        rt
    }

    /// The process-wide placement, detected on first use (before any
    /// pinning).
    pub fn get() -> &'static Placement {
        static P: OnceLock<Placement> = OnceLock::new();
        P.get_or_init(Placement::detect)
    }

    /// Gives the calling thread every allowed CPU again (for the CP
    /// baselines, whose threads inherit the caller's mask).
    pub fn unpin(&self) {
        if self.pinned {
            sys::set(&self.all);
        }
    }
}
