//! Pins a child process to one CPU.
//!
//! On a small virtual machine the cost of waking a thread on the other
//! virtual CPU depends on how busy the host is, and it swings a
//! multi-threaded commit path's latency by up to 2x between minutes.
//! A child pinned to one CPU still runs every thread the database
//! starts (pool worker, async service, feed acceptor), but they share
//! that CPU, so its figures rest on the program's own work and
//! hand-offs rather than on the host's scheduling of the second CPU.
//! Children alternate between the CPUs the process may use.

use std::os::raw::c_int;

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t-sized buffer and pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&cpu| set[cpu / 64] & (1u64 << (cpu % 64)) != 0).collect()
}

/// Pins the calling thread — and every thread it starts afterwards —
/// to the `index`-th allowed CPU (modulo their number). Returns the CPU,
/// or `None` when affinity cannot be read or set (the child then runs
/// unpinned).
pub fn pin_to_nth_cpu(index: usize) -> Option<usize> {
    let cpus = allowed_cpus();
    let cpu = *cpus.get(index % cpus.len().max(1))?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `set` is a valid cpu_set_t-sized mask; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}
