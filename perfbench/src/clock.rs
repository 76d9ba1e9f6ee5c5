//! Host clocks read from procfs: process CPU time, peak RSS and hypervisor
//! steal.
//!
//! Process CPU time is the sum of `sum_exec_runtime` (the first field of
//! `/proc/self/task/<tid>/schedstat`, in nanoseconds) over every live
//! thread. `/proc/self/stat` gives the same quantity only in 10 ms ticks,
//! which is too coarse for steps of tens of milliseconds; it is still read
//! first on every sample, because that read makes the kernel bring the
//! reading thread's own runtime up to date (otherwise a running thread's
//! schedstat lags by up to one scheduler tick). Threads that are asleep at
//! the sample — pool workers between jobs — are exact already.

use std::fs::{self, File};
use std::os::unix::fs::FileExt;

/// Sums on-CPU nanoseconds over the process's threads. The schedstat files
/// stay open between reads; [`CpuClock::now`] re-reads them in place and
/// rescans the task list whenever a thread has come or gone.
pub struct CpuClock {
    stat: File,
    tasks: Vec<File>,
    buf: Vec<u8>,
}

impl CpuClock {
    pub fn new() -> CpuClock {
        let mut c = CpuClock {
            stat: File::open("/proc/self/stat").expect("procfs: /proc/self/stat"),
            tasks: Vec::new(),
            buf: vec![0; 1024],
        };
        c.rescan();
        c
    }

    fn rescan(&mut self) {
        self.tasks = fs::read_dir("/proc/self/task")
            .expect("procfs: /proc/self/task")
            .filter_map(|e| File::open(e.ok()?.path().join("schedstat")).ok())
            .collect();
    }

    fn task_count() -> usize {
        fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }

    fn sum(&mut self) -> Option<u64> {
        self.stat.read_at(&mut self.buf, 0).ok()?;
        let mut total = 0u64;
        for f in &self.tasks {
            let n = f.read_at(&mut self.buf, 0).ok()?;
            let text = std::str::from_utf8(&self.buf[..n]).ok()?;
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(total)
    }

    /// Process CPU nanoseconds so far, over the threads alive now.
    pub fn now(&mut self) -> u64 {
        if self.tasks.len() != Self::task_count() {
            self.rescan();
        }
        loop {
            // A read fails (or parses to nothing) only if a thread exited
            // between the scan and the read; rescan and try again.
            if let Some(v) = self.sum() {
                return v;
            }
            self.rescan();
        }
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs: /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Host-wide CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`, where total excludes the guest columns (already
/// counted in user/nice).
pub fn host_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("procfs: /proc/stat");
    let cols: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = cols.get(7).copied().unwrap_or(0);
    let total = cols.iter().take(8).sum();
    (steal, total)
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_jiffies`] readings.
pub fn steal_frac(a: (u64, u64), b: (u64, u64)) -> f64 {
    let total = b.1.saturating_sub(a.1);
    if total == 0 {
        0.0
    } else {
        b.0.saturating_sub(a.0) as f64 / total as f64
    }
}

/// This thread's on-CPU nanoseconds, brought up to date first.
fn thread_cpu_ns() -> u64 {
    let _ = fs::read("/proc/self/stat");
    let text = fs::read_to_string("/proc/thread-self/schedstat").expect("procfs: /proc/thread-self/schedstat");
    text.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Per-lane CPU milliseconds [`host_probe`] takes on an unloaded 2-vCPU
/// Xeon guest. Only ratios to it matter: it fixes the unit of the
/// host-speed-normalised CPU time the end-to-end metrics are reported in.
pub const PROBE_REFERENCE_MS: f64 = 1.65;

/// Host-speed probe: a fixed kernel that belongs to the benchmark, not to
/// the program under test, run on `lanes` threads at once (one per pool
/// lane, so it meets the same sibling-thread and cache contention the
/// workload does). Returns its mean CPU milliseconds per lane. On a shared
/// host the CPU time a fixed piece of work takes rises with the host's
/// load; dividing by this probe removes most of that drift.
pub fn host_probe(lanes: usize) -> f64 {
    const LEN: usize = 64 * 1024;
    let per_lane: u64 = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..lanes)
            .map(|l| {
                s.spawn(move || {
                    let mut a = vec![1.0f32 + l as f32; LEN];
                    let b = vec![0.5f32; LEN];
                    let c0 = thread_cpu_ns();
                    for _ in 0..100 {
                        for (x, &y) in a.iter_mut().zip(&b) {
                            *x = *x * 0.999 + y * 0.001;
                        }
                        std::hint::black_box(&mut a);
                    }
                    thread_cpu_ns() - c0
                })
            })
            .collect();
        lanes.into_iter().map(|h| h.join().expect("probe thread")).sum()
    });
    per_lane as f64 / 1e6 / lanes.max(1) as f64
}
