//! Process facts read from `/proc` (peak memory, stray worker processes)
//! and the allocator trim that makes peak memory comparable between runs.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kib(&status, "VmHWM:").map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The KiB figure of one `/proc/<pid>/status` line.
fn status_kib(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
}

/// Start measuring peak memory from here: hand the heap this process has
/// freed back to the kernel, so that its resident set is the memory it
/// still uses rather than what earlier work (the benchmark's reference
/// runs, earlier jobs) left cached in the allocator, which varies from run
/// to run; then reset `VmHWM` to that resident set.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak RSS counter (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// How often [`peak_tree_rss_mb`] samples.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// `VmRSS` of process `pid` (`"self"` for this one) in MB, 0 once it is gone.
fn rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status_kib(&status, "VmRSS:").map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Live child processes of this process, whichever of its threads
/// started them.
fn children() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("children")).ok())
        .flat_map(|list| list.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

/// Run `f` while a second thread samples, every [`RSS_SAMPLE_PERIOD`],
/// the resident memory of this process and of its child processes. Returns
/// `f`'s result, the largest total seen and the largest children's sum
/// seen, both in MB.
pub fn peak_tree_rss_mb<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut total, mut workers) = (0.0f64, 0.0f64);
            loop {
                let done = stop.load(Ordering::SeqCst);
                let kids: f64 = children().iter().map(|pid| rss_mb(pid)).sum();
                total = total.max(rss_mb("self") + kids);
                workers = workers.max(kids);
                if done {
                    return (total, workers);
                }
                std::thread::sleep(RSS_SAMPLE_PERIOD);
            }
        });
        let result = f();
        stop.store(true, Ordering::SeqCst);
        let (total, workers) = sampler.join().expect("memory sampler");
        (result, total, workers)
    })
}

/// Pids of live processes running `worker_cmd`: after a cluster job has
/// returned, every one of them is an orphan.
pub fn stray_workers(worker_cmd: &[String]) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let cmdline = std::fs::read(Path::new("/proc").join(pid.to_string()).join("cmdline"))
                .unwrap_or_default();
            let args: Vec<String> = cmdline
                .split(|&b| b == 0)
                .map(|a| String::from_utf8_lossy(a).into_owned())
                .collect();
            args.len() > worker_cmd.len() && args[..worker_cmd.len()] == *worker_cmd
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// SIGKILL stray workers so a failed hygiene check leaves nothing running.
pub fn kill_all(pids: &[u32]) {
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}
