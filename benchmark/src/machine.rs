//! Machine facts (from `/proc`) and process accounting (`getrusage`).
//!
//! Off 64-bit Linux every reader degrades to 0 / "unknown": the harness
//! still runs, and `cpu_us_per_op`, `peak_rss_mb` and
//! `process.ctx_switches_per_op` read 0.

use fastbn::telemetry::Json;

/// Widest configuration the benchmark drives: pools, server workers and
/// load-generator clients are all `min(nproc, MAX_THREADS)`.
pub const MAX_THREADS: usize = 4;

/// What a result must be read against.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub load_1m: f64,
}

impl Machine {
    pub fn detect() -> Machine {
        let nproc = fastbn::parallel::available_threads();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Machine {
            nproc,
            threads: nproc.min(MAX_THREADS),
            cpu_model,
            rustc,
            load_1m: load_1m(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("nproc", self.nproc)
            .set("threads", self.threads)
            .set("cpu_model", self.cpu_model.as_str())
            .set("rustc", self.rustc.as_str())
            .set("load_1m", self.load_1m)
    }
}

/// The 1-minute load average (0 where `/proc/loadavg` is missing).
pub fn load_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `[0]` is `ru_maxrss` (KB) and `[12]`, `[13]` are
/// the voluntary and involuntary context-switch counts.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_self() -> Rusage {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // 64-bit Linux defines (144 bytes, all `long`s); `getrusage` writes
    // only within it and keeps no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage
    } else {
        Rusage::default()
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_self() -> Rusage {
    Rusage::default()
}

/// One reading of the process-wide accounting the kernel keeps for all
/// threads, exited ones included (so load-generator threads that end
/// with a slice still count).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (the counter behind `VmHWM`), MB.
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let u = rusage_self();
        let micros = |tv: [i64; 2]| (tv[0] * 1_000_000 + tv[1]).max(0) as u64;
        Usage {
            cpu_us: micros(u.utime) + micros(u.stime),
            ctx_switches: (u.rest[12] + u.rest[13]).max(0) as u64,
            peak_rss_mb: u.rest[0] as f64 / 1024.0,
        }
    }
}
