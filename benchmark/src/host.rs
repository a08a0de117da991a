//! What the host was doing while the benchmark ran: `/proc` readers for
//! process CPU time, peak RSS, steal and per-thread scheduler statistics,
//! plus the run header that makes two result files comparable or visibly
//! not.
//!
//! Everything degrades to zero / `"unknown"` off Linux; the benchmark then
//! still runs, it just cannot vouch for the host.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// Kernel `USER_HZ`: the unit of the CPU fields in `/proc/*/stat` and
/// `/proc/stat`. A userspace ABI constant (100) on every Linux port.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Process CPU time (user + system, every thread, dead ones included) in
/// seconds, at nanosecond resolution where the C library's
/// `clock_gettime` has the layout declared below, else from `/proc`.
#[must_use]
pub fn process_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer and keeps nothing; on 64-bit Linux that struct is two
        // 64-bit signed fields, which `Timespec` is, and `ts` lives across
        // the call. std already links the C library that defines it.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    proc_stat_cpu_s()
}

/// `utime + stime` from `/proc/self/stat`, 10 ms resolution.
fn proc_stat_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Host-wide CPU accounting from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    /// All accounted time, in `USER_HZ` ticks.
    pub total: f64,
    /// Time the hypervisor ran someone else while a vCPU was runnable.
    pub steal: f64,
}

impl HostCpu {
    /// Reads the current counters.
    #[must_use]
    pub fn now() -> HostCpu {
        let stat = read("/proc/stat");
        let fields: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostCpu {
            // guest time (fields 9, 10) is already inside user/nice.
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0.0),
        }
    }

    /// Share of host CPU time stolen since `earlier`.
    #[must_use]
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total - earlier.total;
        if total <= 0.0 {
            0.0
        } else {
            (self.steal - earlier.steal) / total
        }
    }
}

/// `(on_cpu_ns, runqueue_wait_ns)` summed over this process's live threads
/// whose name starts with `prefix` (`/proc/self/task/*/schedstat`).
#[must_use]
pub fn thread_sched_ns(prefix: &str) -> (u64, u64) {
    let mut on_cpu = 0u64;
    let mut waiting = 0u64;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !name.trim_end().starts_with(prefix) {
            continue;
        }
        let sched = fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().ok());
        if let (Some(Some(run)), Some(Some(wait))) = (fields.next(), fields.next()) {
            on_cpu += run;
            waiting += wait;
        }
    }
    (on_cpu, waiting)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string())
}

/// First line of a command's stdout, or `"unknown"` (the driver's checkout
/// is not a git repository, and a result file must still be written).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts sampled once at start; `finish` adds the end-of-run side.
#[derive(Debug)]
pub struct RunHeader {
    commit: String,
    rustc: String,
    cpu_model: String,
    load_start: f64,
    cpu_start: HostCpu,
}

impl RunHeader {
    /// Samples the start-of-run side.
    #[must_use]
    pub fn start() -> RunHeader {
        RunHeader {
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
            cpu_model: cpu_model(),
            load_start: loadavg_1m(),
            cpu_start: HostCpu::now(),
        }
    }

    /// Host steal share from `start()` until now.
    #[must_use]
    pub fn steal_share(&self) -> f64 {
        HostCpu::now().steal_share_since(&self.cpu_start)
    }

    /// The header object of a result file.
    #[must_use]
    pub fn finish(&self) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("rustc", Json::str(&self.rustc)),
            ("nproc", Json::Num(nproc() as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("loadavg_start", Json::Num(self.load_start)),
            ("loadavg_end", Json::Num(loadavg_1m())),
            ("steal_share", Json::Num(self.steal_share())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(0);
        }
        assert!(process_cpu_s() > 0.02, "30 ms of spinning is on the clock");
        // Other tests burn CPU on sibling threads meanwhile, and /proc
        // ticks at 10 ms: agreement, not equality.
        let (precise, coarse) = (process_cpu_s(), proc_stat_cpu_s());
        assert!(
            (precise - coarse).abs() < 0.05 + 0.2 * precise,
            "clock_gettime {precise} s vs /proc {coarse} s"
        );
        assert!(peak_rss_mb() > 0.1);
        assert!(HostCpu::now().total > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn steal_share_is_a_share_of_the_delta() {
        let a = HostCpu {
            total: 1_000.0,
            steal: 10.0,
        };
        let b = HostCpu {
            total: 1_200.0,
            steal: 30.0,
        };
        assert!((b.steal_share_since(&a) - 0.1).abs() < 1e-12);
        assert_eq!(a.steal_share_since(&a), 0.0);
    }

    #[test]
    fn header_names_every_comparability_field() {
        let header = RunHeader::start().finish();
        for key in [
            "commit",
            "rustc",
            "nproc",
            "cpu_model",
            "loadavg_start",
            "loadavg_end",
            "steal_share",
        ] {
            assert!(header.get(key).is_some(), "{key}");
        }
    }
}
