//! What the benchmark reads from the operating system: CPU count, CPU
//! time and peak memory of this process, and what kind of filesystem a
//! directory sits on. Linux `/proc` only; every reader returns a plain
//! fallback where `/proc` is missing so the run still completes.

use std::path::Path;

/// CPUs the process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// architecture (`sysconf(_SC_CLK_TCK)`; not reachable without libc).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, threads
/// that already exited included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `true` if `dir` sits on a tmpfs mount (longest mount-point prefix in
/// `/proc/self/mountinfo`).
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return false;
    };
    let mut best: Option<(usize, bool)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = head.split_whitespace().nth(4) else {
            continue;
        };
        if dir.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            let fstype = tail.split_whitespace().next().unwrap_or("");
            best = Some((mount_point.len(), fstype == "tmpfs"));
        }
    }
    best.is_some_and(|(_, tmpfs)| tmpfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpus() >= 1);
        // Burn a little CPU so the tick counter has something to show.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(!on_tmpfs(Path::new("/proc/definitely/not/here")));
    }
}
