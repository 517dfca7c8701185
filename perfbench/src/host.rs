//! Host witnesses read from `/proc`: process CPU time, page faults, peak
//! resident set, and the hypervisor's steal time. Steal is CPU time the host gave to a
//! neighbour while this VM had work; a run with high steal is slow for
//! reasons outside the code, and `host.steal_frac` says so beside it.

use std::fs;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`; 100 on
/// every Linux ABI the benchmark runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// Fields of `/proc/self/stat`, numbered from 1 as in proc(5).
fn self_stat() -> Vec<String> {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    ["pid", "comm"]
        .into_iter()
        .map(String::from)
        .chain(rest.split_whitespace().map(String::from))
        .collect()
}

fn stat_field(fields: &[String], n: usize) -> f64 {
    fields[n - 1].parse().expect("numeric stat field")
}

/// User + system CPU seconds of this process, all threads included.
pub fn process_cpu_s() -> f64 {
    let f = self_stat();
    (stat_field(&f, 14) + stat_field(&f, 15)) / TICKS_PER_SEC
}

/// Minor page faults of this process so far, all threads included.
pub fn minor_faults() -> f64 {
    stat_field(&self_stat(), 10)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Keep freed memory in glibc's heap instead of handing it back to the
/// kernel. By default glibc unmaps or trims freed multi-MB buffers, so
/// every checkpoint faults its buffers in again page by page; on a VM the
/// cost of a fault moves with the host's memory load (see the README).
/// The workloads' own copies, allocations and frees still count.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only changes glibc's allocation thresholds, under
        // glibc's own arena lock.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
        };
        assert!(ok, "mallopt refused the allocator thresholds");
    }
}

/// Host-wide CPU tick counters from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub total: u64,
    pub steal: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        // — guest time is already inside user, so only the first eight add.
        HostTicks { total: v.iter().take(8).sum(), steal: v.get(7).copied().unwrap_or(0) }
    }

    /// Share of host CPU time stolen between `self` and `later`.
    pub fn steal_frac_until(&self, later: &HostTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
