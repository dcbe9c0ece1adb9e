//! Per-process accounting read from `/proc`: CPU time, peak resident
//! memory and context switches of the children under test.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux has reported
/// 100 on every architecture since 2.6 (`USER_HZ`), and there is no libc
/// binding in this build to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / TICKS_PER_S)
}

/// The `kB` or plain number after `key:` in `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// One reading of a process. A process that has gone reads as `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub cpu_ms: f64,
    /// `VmHWM`: the peak resident set so far.
    pub rss_peak_mb: f64,
    /// Voluntary + involuntary switches summed over the threads alive
    /// now; threads that already exited (one per task) are not counted.
    pub ctx_switches: u64,
}

pub fn sample(pid: u32) -> Option<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut ctx_switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(task.path().join("status")) {
            ctx_switches += switches(&text);
        }
    }
    Some(ProcSample {
        cpu_ms: parse_stat_cpu_ms(&stat)?,
        rss_peak_mb: parse_status_field(&status, "VmHWM")? as f64 / 1024.0,
        ctx_switches,
    })
}

fn switches(status: &str) -> u64 {
    parse_status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running `cnctl serve` (command name edited to hold
    // the characters that break naive splitting).
    const STAT: &str = "4242 (cn ctl) x) S 4100 4242 4100 34816 4242 4194304 1523 0 0 0 \
        187 45 0 0 20 0 9 0 1088421 312455168 2911 18446744073709551615 1 1 0 0 0 0 0 \
        4096 16384 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tcnctl\nUmask:\t0022\nState:\tS (sleeping)\nTgid:\t4242\n\
        VmPeak:\t  305132 kB\nVmSize:\t  305132 kB\nVmHWM:\t   11644 kB\nVmRSS:\t   11520 kB\n\
        Threads:\t9\nvoluntary_ctxt_switches:\t1312\nnonvoluntary_ctxt_switches:\t27\n";

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // utime 187 + stime 45 ticks at 100 Hz.
        assert_eq!(parse_stat_cpu_ms(STAT), Some(2320.0));
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(11644));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(9));
        // `VmHWM` must not match the `VmH` prefix of another key.
        assert_eq!(parse_status_field(STATUS, "VmH"), None);
        assert_eq!(parse_status_field(STATUS, "Missing"), None);
        assert_eq!(switches(STATUS), 1339);
    }

    #[test]
    fn sampling_this_process_works_and_a_dead_pid_reads_none() {
        let me = sample(std::process::id()).expect("own /proc entry");
        assert!(me.rss_peak_mb > 0.0);
        assert_eq!(sample(u32::MAX), None);
    }
}
