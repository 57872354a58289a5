//! Clocks and counters read from outside the program: process and
//! thread CPU time, per-thread CPU by thread name, peak RSS, and
//! order statistics.

use std::collections::HashMap;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// User and system CPU time, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl Cpu {
    pub fn total_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }
}

fn rusage(who: i32) -> Cpu {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return Cpu::default();
    }
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Cpu {
        user_ms: ms(&ru.utime),
        sys_ms: ms(&ru.stime),
    }
}

/// CPU of the whole process (every thread, live or exited).
pub fn process_cpu() -> Cpu {
    rusage(RUSAGE_SELF)
}

/// CPU of the calling thread.
pub fn thread_cpu() -> Cpu {
    rusage(RUSAGE_THREAD)
}

/// Per-thread CPU from `/proc/self/task/*/stat`, keyed by thread id,
/// with the thread's name. Clock-tick resolution.
pub fn task_cpu() -> HashMap<u64, (String, Cpu)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    let tick_ms = 1e3 / clock_ticks() as f64;
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // "tid (comm) state ppid ..." — comm may contain spaces, so
        // split at the last ')'.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let name = stat[open + 1..close].to_owned();
        let fields: Vec<&str> = stat[close + 2..].split(' ').collect();
        // utime and stime are fields 14 and 15 of the line, i.e. 11 and
        // 12 after "state".
        let (Some(u), Some(s)) = (fields.get(11), fields.get(12)) else {
            continue;
        };
        let cpu = Cpu {
            user_ms: u.parse::<f64>().unwrap_or(0.0) * tick_ms,
            sys_ms: s.parse::<f64>().unwrap_or(0.0) * tick_ms,
        };
        out.insert(tid, (name, cpu));
    }
    out
}

/// Clock ticks per second for `/proc` times (USER_HZ; 100 on Linux).
fn clock_ticks() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// Sums the CPU that threads whose name starts with `prefix` used
/// between two [`task_cpu`] readings.
pub fn threads_cpu_delta(
    before: &HashMap<u64, (String, Cpu)>,
    after: &HashMap<u64, (String, Cpu)>,
    prefix: &str,
) -> Cpu {
    let mut sum = Cpu::default();
    for (tid, (name, cpu)) in after {
        if !name.starts_with(prefix) {
            continue;
        }
        let base = before.get(tid).map(|(_, c)| *c).unwrap_or_default();
        let d = cpu.since(&base);
        sum.user_ms += d.user_ms;
        sum.sys_ms += d.sys_ms;
    }
    sum
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
