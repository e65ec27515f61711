//! Host-side measurement: the repetition loop, process memory and CPU
//! time, and machine-wide steal time. Everything here is wall-clock or
//! kernel accounting, never simulated time.

use std::time::Instant;

/// `/proc` reports CPU times in USER_HZ ticks, which Linux fixes at 100.
const USER_HZ: f64 = 100.0;

/// Runs `rep` back to back for about `seconds` of wall time: always
/// once, then again while one more repetition of the median length so
/// far still ends inside the window. Returns each repetition's result.
pub fn repeat_for<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut lengths = Vec::new();
    loop {
        let t = Instant::now();
        out.push(rep());
        lengths.push(t.elapsed().as_secs_f64());
        let next = crate::report::median(&lengths);
        if start.elapsed().as_secs_f64() + next > seconds {
            return out;
        }
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The process's peak resident set (`VmHWM`), MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process (all threads) has used.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is the first, utime the 12th and stime the 13th.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Machine-wide steal seconds so far (all CPUs), from `/proc/stat`.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |t| t / USER_HZ)
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU and steal seconds spent between [`HostWindow::open`] and
/// [`HostWindow::close`].
pub struct HostWindow {
    cpu: f64,
    steal: f64,
}

impl HostWindow {
    /// Starts a window.
    pub fn open() -> Self {
        HostWindow {
            cpu: cpu_seconds(),
            steal: steal_seconds(),
        }
    }

    /// `(cpu_s, steal_s)` since [`HostWindow::open`].
    pub fn close(&self) -> (f64, f64) {
        (cpu_seconds() - self.cpu, steal_seconds() - self.steal)
    }
}
