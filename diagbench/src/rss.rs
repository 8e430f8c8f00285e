//! Peak resident memory of this process, from `/proc/self/status`.
//!
//! The high-water mark `VmHWM` is reset by writing `5` to
//! `/proc/self/clear_refs` once inputs are generated, so the peak the
//! benchmark reports covers the measured phase and not the report
//! generator's transient corpus.

/// A `kB` field of a `/proc/<pid>/status` text, in MiB.
pub fn status_field_mib(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

fn read_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Current resident set, MiB.
pub fn current_mib() -> Option<f64> {
    status_field_mib(&read_status()?, "VmRSS")
}

/// Peak resident set since start or the last reset, MiB.
pub fn peak_mib() -> Option<f64> {
    status_field_mib(&read_status()?, "VmHWM")
}

/// Resets the peak to the current resident set. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tdiagbench\nVmHWM:\t   20480 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(status_field_mib(status, "VmHWM"), Some(20.0));
        assert_eq!(status_field_mib(status, "VmRSS"), Some(1.0));
        assert_eq!(status_field_mib(status, "VmSwap"), None);
    }

    #[test]
    fn reset_drops_the_peak_to_current() {
        let _serial = crate::heap::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Touch a 256 MiB buffer well past the current resident set,
        // free it, and check the reset brings the high-water mark back
        // down to the resident set (other tests allocate meanwhile, so
        // the margins are wide).
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big);
        let grown = peak_mib().expect("VmHWM readable");
        drop(big);
        assert!(reset_peak(), "clear_refs accepts 5");
        let after = peak_mib().expect("VmHWM readable");
        let rss = current_mib().expect("VmRSS readable");
        assert!(after < grown - 128.0, "peak after reset {after} vs {grown}");
        assert!(
            after >= rss - 64.0,
            "peak {after} tracks the resident set {rss}"
        );
    }
}
