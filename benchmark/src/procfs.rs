//! `/proc` readers: CPU time of the process and of the calling thread,
//! resident-set size and thread count. Linux only, like the transport.

use std::fs;

/// `/proc/*/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick (`USER_HZ`) at 100 on every architecture.
pub const TICK_US: f64 = 10_000.0;

/// `utime + stime` in ticks from a `/proc/.../stat` file.
fn cpu_ticks(path: &str) -> u64 {
    let stat = fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after the
    // last ')'. utime and stime are fields 14 and 15, so 12th and 13th
    // after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

/// User + system CPU time of the whole process, in µs.
pub fn process_cpu_us() -> f64 {
    cpu_ticks("/proc/self/stat") as f64 * TICK_US
}

/// User + system CPU time of the calling thread, in µs.
pub fn thread_cpu_us() -> f64 {
    cpu_ticks("/proc/thread-self/stat") as f64 * TICK_US
}

/// User + system CPU time of every live thread, as `(tid, µs)` in tid
/// order (which is creation order while tids do not wrap).
pub fn task_cpu_us() -> Vec<(u64, f64)> {
    let mut tasks: Vec<(u64, f64)> = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let path = format!("/proc/self/task/{tid}/stat");
            Some((tid, cpu_ticks(&path) as f64 * TICK_US))
        })
        .collect();
    tasks.sort_by_key(|t| t.0);
    tasks
}

fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident-set size (`VmHWM`) in kB.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM:")
}

/// Current resident-set size (`VmRSS`) in kB.
pub fn rss_kb() -> u64 {
    status_field("VmRSS:")
}

/// OS threads in the process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_kb() >= rss_kb());
        assert!(rss_kb() > 0);
        assert!(threads() >= 1);
        // Burn enough CPU to tick at least once.
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_cpu_us() > 0.0);
        assert!(process_cpu_us() >= thread_cpu_us());
    }
}
