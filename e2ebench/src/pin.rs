//! CPU pinning. Each workload runs on one core, its threads and the
//! server it starts included (they inherit the mask):
//!
//! * Each serve request is a ping-pong between a client thread and the
//!   server's event loop; on a 2-vCPU virtual machine a wake-up on the
//!   other core costs far more than one on the same core. Unpinned, the
//!   kernel sometimes kept the threads together and sometimes apart, so
//!   lookups/s took one of two values per run by chance.
//! * `learn_all` and the server default to one worker per usable core,
//!   so they get one; the capacity the host gave two busy threads swung
//!   far more between runs than the speed of one.
//! * The calibration reference (`measure::Calibration`) then runs on
//!   the very core that does the work it is compared with.

use std::os::raw::c_int;

/// `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The calling thread's CPU mask.
pub fn current() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer and
    // the size passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false when the kernel
/// refuses. Threads and processes it starts afterwards inherit the mask.
pub fn set_current(set: &CpuSet) -> bool {
    // SAFETY: `set` points to a valid `cpu_set_t`-sized mask of the
    // size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// The CPUs in the calling thread's mask, ascending.
pub fn cpus(set: &CpuSet) -> Vec<usize> {
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// A mask holding `cpu` alone.
pub fn only(cpu: usize) -> CpuSet {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// The last CPU the calling thread may use, alone; `None` when it may
/// use only one, where nothing needs pinning.
pub fn last_cpu() -> Option<CpuSet> {
    let cpus = cpus(&current()?);
    (cpus.len() >= 2).then(|| only(cpus[cpus.len() - 1]))
}
