//! Metric values, summary statistics and the result line.

use std::fmt::Write as _;

/// One reported figure. Ratios carry the two counts they were computed
/// from, so a reader can always see the base behind a share.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(numerator, denominator)` for ratios.
    pub base: Option<(u64, u64)>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            base: None,
        }
    }

    /// `num / den` scaled by `per` (1 for a plain ratio, 1000 for a
    /// per-kilo rate). A zero denominator reads 0.
    pub fn ratio(name: &'static str, unit: &'static str, num: u64, den: u64, per: f64) -> Metric {
        let value = if den == 0 {
            0.0
        } else {
            num as f64 * per / den as f64
        };
        Metric {
            name,
            unit,
            value,
            base: Some((num, den)),
        }
    }
}

/// `true` when `name` may be used as a metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles a timing's tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 3] = [90.0, 99.0, 99.9];

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten of
/// `n` samples beyond it, or `None` when even p90 has fewer than ten
/// (that is, `n < 100`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Value at percentile `p` of `xs` by the nearest-rank rule.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One-line summary of a set of timings: median, the tail percentile the
/// sample count supports, and the count.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let mut s = format!("median {:.4} {unit}", median(xs));
    match tail_percentile(xs.len()) {
        Some(p) => {
            let _ = write!(s, ", p{p} {:.4} {unit}", percentile(xs, p));
        }
        None => s.push_str(", no tail percentile"),
    }
    let _ = write!(s, " (n={})", xs.len());
    s
}

/// Renders a number for the result line. JSON has no NaN or infinity,
/// so those become `null`, which the reader rejects as a failed run.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable line for one metric, with the base counts of a ratio.
pub fn metric_line(m: &Metric) -> String {
    match m.base {
        Some((num, den)) => format!(
            "  {:<34} {:>14.6} {:<8} ({num} / {den})",
            m.name, m.value, m.unit
        ),
        None => format!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
    }
}

/// Host resident-set high-water mark in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU model, CPU count, compiler, commit and build profile, printed
/// with every result so that figures from different hosts are not
/// compared by mistake.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let commit = git_head().unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("cpu=\"{cpu}\" nproc={nproc} rustc=\"{rustc}\" commit={commit} profile={profile}")
}

/// The commit checked out in the current directory, read from `.git`
/// there (no search of parent directories), first 12 hex digits.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(format!(".git/{name}")) {
            Ok(h) => h.trim().to_string(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find(|l| l.ends_with(name))?
                .split_whitespace()
                .next()?
                .to_string(),
        },
    };
    Some(hash.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100usize, 250, 1000, 5000, 20_000] {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn describe_states_the_count_and_omits_an_unsupported_tail() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        let d = describe(&xs, "s");
        assert!(d.contains("median 3.0000 s"), "{d}");
        assert!(d.contains("no tail percentile") && d.contains("n=5"), "{d}");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = describe(&xs, "ms");
        assert!(d.contains("p90 90.0000 ms") && d.contains("n=100"), "{d}");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 100.0), 5.0);
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "minst_per_s",
            "mem.l1d_hit_ratio",
            "core.phase_ea_frac",
            "a-b.c_1",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "peak%",
            "ümlaut",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn ratios_keep_their_base_counts() {
        let m = Metric::ratio("x.ratio", "ratio", 3, 4, 1.0);
        assert_eq!(m.value, 0.75);
        assert_eq!(m.base, Some((3, 4)));
        assert!(metric_line(&m).contains("(3 / 4)"));
        let k = Metric::ratio("x.per_kinst", "1/kinst", 5, 2000, 1000.0);
        assert_eq!(k.value, 2.5);
        assert_eq!(Metric::ratio("z", "ratio", 1, 0, 1.0).value, 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("setup_s", "s", 0.25),
                Metric::new("bad", "x", f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"x\"}}}"
        );
    }
}
