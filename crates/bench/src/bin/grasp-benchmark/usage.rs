//! CPU time and peak memory of this process and of the worker processes it
//! has reaped, the signal that ends an overdue pass, plus the machine facts
//! every result is stamped with.

/// CPU seconds and peak resident set of one `getrusage` scope.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use super::Usage;

    /// `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
    /// microseconds, each a `long`) followed by fourteen `long` counters,
    /// of which the first is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    const SIGKILL: i32 = 9;

    pub fn kill_group(pgid: u32) {
        let Ok(pgid) = i32::try_from(pgid) else {
            return;
        };
        // SAFETY: `kill` takes two integers and reads or writes no memory of
        // this process.  A negative pid addresses the process group; a group
        // with no member left is an `ESRCH` error, which is what we want to
        // be true anyway.
        unsafe { kill(-pgid, SIGKILL) };
    }

    pub const SELF: i32 = 0;
    pub const CHILDREN: i32 = -1;

    pub fn rusage(who: i32) -> Usage {
        let mut raw = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss_kb: 0,
            rest: [0; 13],
        };
        // SAFETY: `raw` is a live, writable `RUsage` whose layout is the
        // 144-byte `struct rusage` of 64-bit Linux (see the struct), the
        // only thing `getrusage` writes through the pointer; `who` is one
        // of the two constants the call accepts, and a failed call leaves
        // `raw` zeroed, which reads as "no usage".
        let rc = unsafe { getrusage(who, &mut raw) };
        if rc != 0 {
            return Usage::default();
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Usage {
            cpu_s: secs(raw.utime) + secs(raw.stime),
            peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use super::Usage;
    pub const SELF: i32 = 0;
    pub const CHILDREN: i32 = -1;
    /// No portable source without a libc binding: report nothing.
    pub fn rusage(_who: i32) -> Usage {
        Usage::default()
    }
    pub fn kill_group(_pgid: u32) {}
}

/// Usage of this process plus every child process it has waited for — the
/// proc and net backends reap their workers at the end of each run, so
/// between runs this is the whole cost a shared grid would be billed.
///
/// This process's own peak is `VmHWM`, not its `ru_maxrss`: a re-exec'd
/// child's `ru_maxrss` starts from the resident set of the parent it was
/// spawned from, so small workloads would report the parent's memory.
pub fn process_tree() -> Usage {
    let own = sys::rusage(sys::SELF);
    let children = sys::rusage(sys::CHILDREN);
    Usage {
        cpu_s: own.cpu_s + children.cpu_s,
        peak_rss_mb: vm_hwm_mb()
            .unwrap_or(own.peak_rss_mb)
            .max(children.peak_rss_mb),
    }
}

/// `VmHWM` of `/proc/self/status`: the peak resident set of this process's
/// current address space, in MB.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// SIGKILL every process still in the group `pgid` leads: an overdue pass
/// together with the worker processes it spawned, or whatever a finished
/// pass left behind.
pub fn kill_group(pgid: u32) {
    sys::kill_group(pgid);
}

/// The 1-minute load average, or 0 where `/proc/loadavg` does not exist.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the working directory, `unknown` when git or the
/// repository is absent.  The ceiling keeps git from wandering above the
/// checkout in search of one.
pub fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn burning_cpu_shows_up_in_the_process_tree_usage() {
        let before = process_tree();
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        while t0.elapsed().as_millis() < 30 {
            acc = acc.wrapping_add(grasp_exec::spin(10_000));
        }
        std::hint::black_box(acc);
        let after = process_tree();
        assert!(after.cpu_s - before.cpu_s > 0.01, "{before:?} -> {after:?}");
        assert!(after.peak_rss_mb > 1.0);
    }
}
