//! Process and thread accounting from `/proc` (Linux): per-thread CPU
//! time in nanoseconds from `schedstat`, and the resident-set high-water
//! mark; and thread placement through the C library's affinity calls.

use std::collections::HashMap;

/// CPU nanoseconds of every live thread of this process, keyed by tid,
/// with the thread's name.
pub fn thread_cpu() -> HashMap<u64, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        if let Some(ns) = ns {
            out.insert(tid, (name, ns));
        }
    }
    out
}

/// Whether a thread belongs to the benchmark itself (load generator or
/// coordinator) rather than to the system under test.
pub fn is_bench_thread(tid: u64, name: &str) -> bool {
    tid == std::process::id() as u64 || name.starts_with(GEN_THREAD_PREFIX)
}

/// Name prefix of every load-generator thread.
pub const GEN_THREAD_PREFIX: &str = "lb-";

/// A CPU snapshot split into the benchmark's own threads and the rest.
#[derive(Clone, Debug, Default)]
pub struct CpuSplit {
    /// Per-thread CPU ns at the snapshot.
    pub threads: HashMap<u64, (String, u64)>,
}

impl CpuSplit {
    /// Take a snapshot now.
    pub fn now() -> CpuSplit {
        CpuSplit {
            threads: thread_cpu(),
        }
    }

    /// CPU ns spent since `earlier`: `(system under test, benchmark)`.
    /// Threads born in between count from zero.
    pub fn since(&self, earlier: &CpuSplit) -> (u64, u64) {
        let (mut sut, mut bench) = (0u64, 0u64);
        for (tid, (name, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, b)| *b);
            let d = ns.saturating_sub(before);
            if is_bench_thread(*tid, name) {
                bench += d;
            } else {
                sut += d;
            }
        }
        (sut, bench)
    }

    /// CPU ns the named thread spent since `earlier` (0 if absent).
    pub fn named_since(&self, earlier: &CpuSplit, name: &str) -> u64 {
        self.threads
            .iter()
            .filter(|(_, (n, _))| n == name)
            .map(|(tid, (_, ns))| {
                ns.saturating_sub(earlier.threads.get(tid).map_or(0, |(_, b)| *b))
            })
            .sum()
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The C library's `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Give every thread named `name` the last CPU the calling thread may
/// run on, to itself, and every other thread of the process the rest.
/// Threads spawned later inherit their spawner's set. Returns false,
/// and moves nothing, with fewer than two CPUs.
pub fn pin_apart(name: &str) -> bool {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let (Some(&own), true) = (cpus.last(), cpus.len() >= 2) else {
        return false;
    };
    let mut alone: CpuSet = [0; 16];
    alone[own / 64] |= 1 << (own % 64);
    let mut rest = allowed;
    rest[own / 64] &= !(1 << (own % 64));
    for (tid, (comm, _)) in thread_cpu() {
        let mask = if comm == name { &alone } else { &rest };
        // SAFETY: `mask` is a valid `cpu_set_t` of `size` bytes. A thread
        // that ended meanwhile makes the call fail harmlessly.
        unsafe { sched_setaffinity(tid as i32, size, mask) };
    }
    true
}
