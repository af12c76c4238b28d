//! Readers for the Linux `/proc` counters the benchmark reports: this
//! process's CPU time and memory high-water mark, and the host's steal
//! time and load average.

use std::fs;

/// `USER_HZ`: the unit of the tick counters in `/proc/*/stat`, fixed at
/// 100 for user space on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (threads that already exited too).
pub fn process_cpu_seconds() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis start with the state (field 3).
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    // utime and stime are fields 14 and 15.
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// The resident-set high-water mark of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("/proc/self/status: no VmHWM line")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn read() -> Result<Self, String> {
        let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let line = text
            .lines()
            .find(|l| l.starts_with("cpu "))
            .ok_or("/proc/stat: no aggregate cpu line")?;
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted in user.
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse::<u64>().map_err(|e| format!("/proc/stat: {e}")))
            .collect::<Result<_, _>>()?;
        if values.len() < 8 {
            return Err("/proc/stat: short cpu line".into());
        }
        Ok(Self {
            steal: values[7],
            total: values.iter().sum(),
        })
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The one-minute load average.
pub fn load_average() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/loadavg").map_err(|e| format!("/proc/loadavg: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "/proc/loadavg: unreadable".to_string())
}
