//! Process counters from `/proc/self/{stat,status}` and CPU pinning.
//!
//! The parsers take the file's text so fixture strings can test them.

use std::fs;

/// The counters of `/proc/self/stat` the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    /// Minor page faults (field 10).
    pub minor_faults: u64,
    /// User-mode CPU time in clock ticks (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode CPU time in clock ticks (field 15).
    pub stime_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// itself contain spaces and parentheses, so fields are counted from
/// the **last** `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse().ok();
    Some(Stat {
        minor_faults: field(10)?,
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
    })
}

/// The fields of `/proc/self/status` the benchmark reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size in kB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// `Cpus_allowed_list`, e.g. `0-1` or `2,4-7`.
    pub cpus_allowed_list: String,
}

/// Parses `/proc/<pid>/status`. Every reported field must be present.
pub fn parse_status(text: &str) -> Option<Status> {
    let value = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
            .map(str::trim)
    };
    let number = |key: &str| value(key)?.split_whitespace().next()?.parse().ok();
    Some(Status {
        vm_hwm_kb: number("VmHWM")?,
        cpus_allowed_list: value("Cpus_allowed_list")?.to_string(),
    })
}

/// The first CPU id of a `Cpus_allowed_list` such as `0-1` or `3,5-7`.
pub fn first_cpu(list: &str) -> Option<usize> {
    list.split([',', '-']).next()?.trim().parse().ok()
}

/// Reads this process's `/proc/self/stat`.
pub fn read_stat() -> Result<Stat, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat(&text).ok_or_else(|| "/proc/self/stat: unexpected format".to_string())
}

/// Reads this process's `/proc/self/status`.
pub fn read_status() -> Result<Status, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status(&text).ok_or_else(|| "/proc/self/status: unexpected format".to_string())
}

/// Process counters at one instant; subtract two to get a region's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// User CPU seconds.
    pub cpu_user_s: f64,
    /// Kernel CPU seconds.
    pub cpu_sys_s: f64,
    /// Voluntary + involuntary context switches of every thread the
    /// process has had (`getrusage`: the `/proc/self/status` counts
    /// cover the main thread alone, and the party threads do the work).
    pub ctx_switches: u64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl Counters {
    /// Samples the counters now.
    pub fn now() -> Result<Self, String> {
        let stat = read_stat()?;
        let hz = clock_ticks_per_second();
        Ok(Counters {
            cpu_user_s: stat.utime_ticks as f64 / hz,
            cpu_sys_s: stat.stime_ticks as f64 / hz,
            ctx_switches: process_context_switches()?,
            minor_faults: stat.minor_faults,
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_user_s: self.cpu_user_s - earlier.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - earlier.cpu_sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(read_status()?.vm_hwm_kb as f64 * 1024.0 / 1e6)
}

// std links libc on Linux, so its symbols resolve without a crate.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

/// `RUSAGE_SELF`: the calling process, all threads, exited ones too.
const RUSAGE_SELF: i32 = 0;

fn process_context_switches() -> Result<u64, String> {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` (layout above,
    // 144 bytes on 64-bit Linux) for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok((usage.longs[12] + usage.longs[13]) as u64)
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf takes an integer and returns an integer; it
    // touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Pins the calling thread — and every thread it later spawns — to the
/// first CPU this process is allowed on, and returns that CPU's id.
///
/// Both parties then share one core: their lock-step rounds become
/// same-core hand-offs instead of cross-CPU futex wakes, which on a
/// 2-vCPU box is the difference between ±1 % and ±30 % run to run.
/// A run that cannot pin fails rather than report unpinned numbers.
pub fn pin_to_first_allowed_cpu() -> Result<usize, String> {
    let list = read_status()?.cpus_allowed_list;
    let cpu = first_cpu(&list).ok_or_else(|| format!("cannot parse Cpus_allowed_list {list:?}"))?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is beyond the {}-bit affinity mask", 16 * 64))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes for
    // the duration of the call, and the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let now = read_status()?.cpus_allowed_list;
    if now.trim() != cpu.to_string() {
        return Err(format!(
            "pinned to cpu {cpu} but Cpus_allowed_list reads {now:?}"
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) R 4000 4242 4000 34816 4242 4194304 \
        12345 0 7 0 678 91 0 0 20 0 3 0 8912345 123456789 4321 18446744073709551615 \
        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tbench\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  204800 kB\nVmSize:\t  204000 kB\nVmHWM:\t  153320 kB\nVmRSS:\t  100000 kB\n\
        Threads:\t3\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n\
        voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n";

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let stat = parse_stat(STAT).unwrap();
        assert_eq!(
            stat,
            Stat {
                minor_faults: 12345,
                utime_ticks: 678,
                stime_ticks: 91
            }
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 2 3"), None);
    }

    #[test]
    fn status_fields_parse_with_units_and_tabs() {
        let status = parse_status(STATUS).unwrap();
        assert_eq!(status.vm_hwm_kb, 153_320);
        assert_eq!(status.cpus_allowed_list, "0-1");
        // VmHWM must not be satisfied by VmPeak or a missing line.
        assert_eq!(parse_status("VmPeak:\t1 kB\n"), None);
    }

    #[test]
    fn first_cpu_of_ranges_and_lists() {
        assert_eq!(first_cpu("0-1"), Some(0));
        assert_eq!(first_cpu("3,5-7"), Some(3));
        assert_eq!(first_cpu("12"), Some(12));
        assert_eq!(first_cpu(""), None);
    }

    #[test]
    fn live_counters_read_and_count_other_threads() {
        let before = Counters::now().unwrap();
        assert!(peak_rss_mb().unwrap() > 0.0);
        // A thread that blocks 20 times switches out at least 20 times;
        // the main thread's own /proc status would not see them.
        std::thread::spawn(|| {
            for _ in 0..20 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
        .join()
        .unwrap();
        let during = Counters::now().unwrap().since(&before);
        assert!(during.ctx_switches >= 20, "{during:?}");
        assert!(during.cpu_user_s >= 0.0 && during.cpu_sys_s >= 0.0);
    }
}
