//! `sst-simbench`: end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     [--workload oltp_sst|gzip_lineup|all] \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints the host fingerprint, every metric by name with its unit, and
//! as the last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this file
//! for the workloads and for which layer figure should move which
//! end-to-end figure.

mod golden;
mod layers;
mod report;
mod workloads;

use workloads::{Kind, DEFAULT_SEED, HELD_OUT_SEED};

/// The end-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("minst_per_s", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cpi", "cycles/inst"),
    ("cpi_accuracy_pct", "%"),
];

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        kinds: Kind::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 60.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.kinds =
                    match v.as_str() {
                        "all" => Kind::ALL.to_vec(),
                        name => vec![Kind::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?],
                    };
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u32 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                a.seconds = f64::from(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sst-simbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host: {}", report::host_fingerprint());
    println!("seeds with recorded outputs: {DEFAULT_SEED} (default), {HELD_OUT_SEED} (held out)");
    for kind in args.kinds {
        println!(
            "workload {} seed {} seconds {} trace {}",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let mut out = if args.trace {
            layers::traced(kind, args.seed, args.seconds)
        } else {
            workloads::timed(kind, args.seed, args.seconds)
        };
        if let Some(m) = out
            .metrics
            .iter()
            .find(|m| !report::valid_metric_name(m.name))
        {
            let bad = format!("metric name {:?} breaks the naming rule", m.name);
            out.attempt::<()>(Err(bad));
        }
        for m in &out.metrics {
            println!("{}", report::metric_line(m));
        }
        println!(
            "{}",
            report::metric_line(&report::Metric::ratio(
                "failed_frac",
                "ratio",
                out.failed,
                out.attempted,
                1.0
            ))
        );
        for l in &out.lines {
            println!("{l}");
        }
        for n in &out.notes {
            println!("  FAILED: {n}");
        }
        println!(
            "{}",
            report::result_line(out.correct(), out.attempted, out.failed, &out.metrics)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = args("").unwrap();
        assert_eq!((a.kinds.len(), a.seed, a.trace), (2, DEFAULT_SEED, false));
        let a = args("--workload gzip_lineup --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.kinds, vec![Kind::GzipLineup]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END {
            assert!(report::valid_metric_name(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for k in Kind::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\"", k.name())),
                "{}",
                k.name()
            );
        }
    }
}
