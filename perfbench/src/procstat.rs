//! Process CPU time and peak RSS from `/proc`, with std only.

use std::fs;

/// `AT_CLKTCK` in the auxiliary vector: the unit of `/proc/self/stat`
/// CPU times.
const AT_CLKTCK: u64 = 17;

/// Clock ticks per second, read from `/proc/self/auxv` (what
/// `sysconf(_SC_CLK_TCK)` returns); 100 when the vector is unreadable.
fn clock_ticks() -> f64 {
    let Ok(auxv) = fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    let word = |c: &[u8]| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"));
    auxv.chunks_exact(16)
        .map(|pair| (word(&pair[..8]), word(&pair[8..])))
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, ticks)| ticks as f64)
}

/// User plus system CPU seconds of this process and of the children it
/// has reaped (`utime + stime + cutime + cstime`).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    cpu_seconds_from(&stat, clock_ticks())
}

fn cpu_seconds_from(stat: &str, ticks: f64) -> f64 {
    // The command name may hold spaces or parentheses: fields are counted
    // from the last ')'. After it come field 3 (state) onwards; utime is
    // field 14, so index 11 of the remainder.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks_sum: u64 = fields[11..15].iter().map(|f| f.parse::<u64>().expect("numeric")).sum();
    ticks_sum as f64 / ticks
}

/// High-water resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    peak_rss_mb_from(&status)
}

fn peak_rss_mb_from(status: &str) -> f64 {
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "42 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 120 30 7 3 20 0";
        assert_eq!(cpu_seconds_from(stat, 100.0), 1.6);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(clock_ticks() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(peak_rss_mb_from("Name:\tx\nVmHWM:\t   2048 kB\n"), 2.0);
    }
}
