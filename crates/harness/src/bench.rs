//! `sst-run bench`: the hot-loop throughput benchmark.
//!
//! Times a fixed matrix of single-core simulations (no co-simulation, no
//! cache, one thread) and reports simulated **Minst/s** — millions of
//! committed instructions per wall-clock second — per (model, workload)
//! pair plus the geometric mean. The numbers measure the *simulator*,
//! not the simulated machines: a regression here means `tick()` or the
//! memory walk got slower, long before anyone notices on a full sweep.
//!
//! Each pair gets one unmeasured warm-up run (page faults, allocator
//! growth, icache) followed by `--repeats` timed runs; the reported wall
//! time is the median, which shrugs off one noisy neighbour on a shared
//! runner. A CMP section times a 16-core SST chip at `--threads` 1 and 4
//! and reports the parallel speedup alongside the host's available
//! parallelism (a 1-CPU host will honestly report ~1×).
//!
//! The result is written as JSON (default `BENCH_hotloop.json`, intended
//! to live at the repo root) so CI can compare a fresh run against the
//! committed baseline with `--check`:
//!
//! * any pair's `insts` or `cycles` differing from the baseline's (or
//!   missing from it) → exit 1. The simulators are deterministic, so a
//!   moved count is a bug, never noise; this covers the CMP pairs too;
//! * fresh geomean < 90% of baseline → loud warning, exit 0 (soft gate —
//!   shared CI runners are noisy);
//! * fresh geomean < 80% of baseline → exit 1 (a real regression).
//!
//! The `--check` geomean covers the single-core matrix only; the CMP
//! pairs' wall times are informational (they depend on host parallelism,
//! which CI runners do not guarantee).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::JVal;
use sst_mem::MemConfig;
use sst_obs::{HostTimes, Stage};
use sst_sim::{geomean, CmpSystem, CoreModel, System};
use sst_workloads::{Scale, Workload};

/// Cycle budget per pair; bench pairs are small, this is wedge insurance.
const BENCH_MAX_CYCLES: u64 = 2_000_000_000;

/// The default matrix: every pipeline family the study compares, over a
/// compute-bound, a memory-bound, and a commercial-style workload.
const DEFAULT_MODELS: &[&str] = &["io", "scout", "ea", "sst", "o128"];
const DEFAULT_WORKLOADS: &[&str] = &["gzip", "erp", "oltp"];

/// Ratio thresholds for `--check` (fresh / baseline geomean).
const WARN_BELOW: f64 = 0.90;
const FAIL_BELOW: f64 = 0.80;

/// The CMP section: a 16-core SST chip on the memory-bound workload,
/// serial vs. 4 simulation threads.
const CMP_CORES: usize = 16;
const CMP_WORKLOAD: &str = "erp";
const CMP_THREADS: [usize; 2] = [1, 4];

/// The sampling benchmark (`--sampling`): a ~10M-instruction OLTP run
/// (oltp averages ~63.5 insts/txn, so 160k transactions), measured both
/// fully detailed and SMARTS-sampled.
const SAMPLING_TXNS: i64 = 160_000;
/// Sampled CPI must land within this fraction of the fully detailed CPI.
const SAMPLING_MAX_REL_ERR: f64 = 0.03;
/// `--check` floor on sampled-mode effective throughput.
const SAMPLING_MIN_MINST_PER_S: f64 = 50.0;

struct PairResult {
    model: String,
    workload: String,
    insts: u64,
    cycles: u64,
    wall_ms: f64,
    minst_per_s: f64,
}

impl PairResult {
    fn counts(&self) -> SimCounts {
        SimCounts {
            pair: pair_name(&self.model, &self.workload),
            insts: self.insts,
            cycles: self.cycles,
        }
    }
}

/// One pair's deterministic simulated counts, as `--check` compares
/// them.
#[derive(Debug, PartialEq)]
struct SimCounts {
    /// `model/workload`, plus ` xCORES tTHREADS` for CMP pairs.
    pair: String,
    insts: u64,
    cycles: u64,
}

/// What `--check` compares a fresh run against, read from the previous
/// report before the run overwrites it.
struct Baseline {
    scale: String,
    seed: u64,
    geomean: f64,
    counts: Vec<SimCounts>,
}

struct CmpPairResult {
    model: String,
    workload: String,
    cores: usize,
    threads: usize,
    insts: u64,
    cycles: u64,
    wall_ms: f64,
    minst_per_s: f64,
}

impl CmpPairResult {
    fn counts(&self) -> SimCounts {
        SimCounts {
            pair: cmp_pair_name(&self.model, &self.workload, self.cores, self.threads),
            insts: self.insts,
            cycles: self.cycles,
        }
    }
}

fn pair_name(model: &str, workload: &str) -> String {
    format!("{model}/{workload}")
}

fn cmp_pair_name(model: &str, workload: &str, cores: usize, threads: usize) -> String {
    format!("{model}/{workload} x{cores} t{threads}")
}

fn parse_model(tok: &str) -> Option<CoreModel> {
    Some(match tok {
        "io" | "in-order" | "inorder" => CoreModel::InOrder,
        "scout" => CoreModel::Scout,
        "ea" | "execute-ahead" => CoreModel::ExecuteAhead,
        "sst" => CoreModel::Sst,
        "o32" | "ooo-32" => CoreModel::Ooo32,
        "o64" | "ooo-64" => CoreModel::Ooo64,
        "o128" | "ooo-128" => CoreModel::Ooo128,
        _ => return None,
    })
}

/// Options parsed from `sst-run bench ...` arguments.
struct BenchOpts {
    scale: Scale,
    seed: u64,
    models: Vec<String>,
    workloads: Vec<String>,
    out: String,
    out_set: bool,
    check: bool,
    fast_forward: bool,
    repeats: usize,
    cmp: bool,
    sampling: bool,
}

impl BenchOpts {
    fn defaults() -> BenchOpts {
        BenchOpts {
            scale: Scale::Smoke,
            seed: 12345,
            models: DEFAULT_MODELS.iter().map(|s| s.to_string()).collect(),
            workloads: DEFAULT_WORKLOADS.iter().map(|s| s.to_string()).collect(),
            out: "BENCH_hotloop.json".to_string(),
            out_set: false,
            check: false,
            fast_forward: true,
            repeats: 3,
            cmp: true,
            sampling: false,
        }
    }

    /// The scale as written in reports ("smoke"/"full").
    fn scale_token(&self) -> &'static str {
        match self.scale {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}

const BENCH_USAGE: &str = "\
usage: sst-run bench [options]

Times the simulation hot loop (single thread, cosim off) and reports
simulated Minst/s per (model, workload) pair plus the geometric mean.

options:
  --out PATH         where to write the JSON report
                     (default: BENCH_hotloop.json)
  --check            compare against the existing report at --out PATH:
                     fail if any pair's insts or cycles differ from it,
                     warn below 90% of its geomean, fail below 80%
  --scale S          smoke|full (default smoke)
  --seed N           workload seed (default 12345)
  --models a,b,..    io scout ea sst o32 o64 o128 (default io,scout,ea,sst,o128)
  --workloads a,b,.. any study workload (default gzip,erp,oltp)
  --repeats N        timed runs per pair after one warm-up; the median
                     is reported (default 3)
  --no-cmp           skip the 16-core CMP pairs (threads 1 vs 4)
  --no-fast-forward  tick every cycle (measures the unskipped loop)
  --sampling         run the SMARTS sampling benchmark instead: a ~10M
                     instruction oltp run, fully detailed vs sampled.
                     Fails if the sampled CPI is off by more than 3%;
                     with --check also fails below 50 Minst/s effective.
                     Writes BENCH_sampling.json unless --out is given
  --help             this text";

/// Entry point for `sst-run bench <args>`. Returns the process exit code.
pub fn bench_main<I: Iterator<Item = String>>(mut args: I) -> i32 {
    let mut o = BenchOpts::defaults();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{BENCH_USAGE}");
                return 0;
            }
            "--check" => o.check = true,
            "--no-fast-forward" => o.fast_forward = false,
            "--no-cmp" => o.cmp = false,
            "--sampling" => o.sampling = true,
            "--repeats" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => o.repeats = n,
                _ => return bench_arg_err("--repeats needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(p) => {
                    o.out = p;
                    o.out_set = true;
                }
                None => return bench_arg_err("--out needs a path"),
            },
            "--scale" => match args.next().as_deref() {
                Some("smoke") => o.scale = Scale::Smoke,
                Some("full") => o.scale = Scale::Full,
                _ => return bench_arg_err("--scale needs smoke|full"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => o.seed = n,
                None => return bench_arg_err("--seed needs a u64"),
            },
            "--models" => match args.next() {
                Some(v) => o.models = v.split(',').map(|s| s.to_string()).collect(),
                None => return bench_arg_err("--models needs a list"),
            },
            "--workloads" => match args.next() {
                Some(v) => o.workloads = v.split(',').map(|s| s.to_string()).collect(),
                None => return bench_arg_err("--workloads needs a list"),
            },
            other => return bench_arg_err(&format!("unknown option {other:?}")),
        }
    }
    if o.sampling {
        if !o.out_set {
            o.out = "BENCH_sampling.json".to_string();
        }
        return run_sampling_bench(&o);
    }
    run_bench(&o)
}

fn bench_arg_err(msg: &str) -> i32 {
    eprintln!("sst-run bench: {msg}\n\n{BENCH_USAGE}");
    2
}

fn run_bench(o: &BenchOpts) -> i32 {
    let mut models = Vec::new();
    for tok in &o.models {
        match parse_model(tok) {
            Some(m) => models.push(m),
            None => return bench_arg_err(&format!("unknown model {tok:?}")),
        }
    }

    // Read the baseline *before* running, so `--check` against the file
    // we are about to overwrite still compares old vs new.
    let baseline = if o.check {
        match read_baseline(&o.out) {
            Some(b) => Some(b),
            None => {
                eprintln!(
                    "sst-run bench: --check: no readable baseline at {} — treating as first run",
                    o.out
                );
                None
            }
        }
    } else {
        None
    };
    if let Some(b) = &baseline {
        if b.scale != o.scale_token() || b.seed != o.seed {
            eprintln!(
                "sst-run bench: --check: baseline {} was recorded at scale={} seed={}; \
                 this run is scale={} seed={}, so its counts cannot be compared",
                o.out,
                b.scale,
                b.seed,
                o.scale_token(),
                o.seed
            );
            return 2;
        }
    }

    let host_cpus = host_cpus();
    println!(
        "sst-run bench: {} pair(s), scale={}, seed={}, fast-forward {}, \
         warm-up + median of {}, host cpus {}",
        models.len() * o.workloads.len(),
        o.scale_token(),
        o.seed,
        if o.fast_forward { "on" } else { "off" },
        o.repeats,
        host_cpus,
    );

    let mut pairs: Vec<PairResult> = Vec::new();
    // Host-side self-profile: one additional instrumented run per pair,
    // stage times merged per model. Kept out of the timed runs — the
    // scoped timers cost a few percent, and Minst/s must measure the
    // uninstrumented loop.
    let mut prof_by_model: BTreeMap<String, HostTimes> = BTreeMap::new();
    for model in &models {
        for wname in &o.workloads {
            if Workload::by_name(wname, o.scale, o.seed).is_none() {
                return bench_arg_err(&format!("unknown workload {wname:?}"));
            }
            let label = model.label();
            let run_once = || {
                let w = Workload::by_name(wname, o.scale, o.seed).expect("checked above");
                let mut sys = System::new(model.clone(), &w).without_cosim();
                if !o.fast_forward {
                    sys = sys.without_fast_forward();
                }
                let started = Instant::now();
                let r = sys.run_checked(BENCH_MAX_CYCLES).map_err(|e| e.to_string())?;
                Ok((r.insts, r.cycles, started.elapsed().as_secs_f64()))
            };
            let (insts, cycles, wall) = match timed_median(o.repeats, run_once) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("sst-run bench: {label}/{wname}: {e}");
                    return 1;
                }
            };
            let minst_per_s = insts as f64 / 1e6 / wall.max(1e-9);
            println!(
                "  {label:<8} {wname:<8} {:>9} insts {:>10} cycles {:>8.1} ms {:>8.2} Minst/s",
                insts,
                cycles,
                wall * 1e3,
                minst_per_s,
            );
            pairs.push(PairResult {
                model: label.clone(),
                workload: wname.clone(),
                insts,
                cycles,
                wall_ms: wall * 1e3,
                minst_per_s,
            });

            let w = Workload::by_name(wname, o.scale, o.seed).expect("checked above");
            let mut sys = System::new(model.clone(), &w).without_cosim().with_host_prof();
            if !o.fast_forward {
                sys = sys.without_fast_forward();
            }
            match sys.run_with_profile(BENCH_MAX_CYCLES) {
                Ok((_, Some(times))) => {
                    prof_by_model.entry(label).or_insert_with(HostTimes::new).merge(&times);
                }
                Ok((_, None)) => {}
                Err(e) => {
                    eprintln!("sst-run bench: {label}/{wname} (profiled): {e}");
                    return 1;
                }
            }
        }
    }

    let g = geomean(&pairs.iter().map(|p| p.minst_per_s).collect::<Vec<_>>());
    println!("geomean: {g:.2} Minst/s");
    print_host_profile(&prof_by_model);

    let cmp_pairs = if o.cmp {
        match run_cmp_bench(o) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("sst-run bench: cmp: {e}");
                return 1;
            }
        }
    } else {
        Vec::new()
    };

    if let Err(e) = std::fs::write(
        &o.out,
        render_report(o, &pairs, &cmp_pairs, &prof_by_model, g, host_cpus),
    ) {
        eprintln!("sst-run bench: cannot write {}: {e}", o.out);
        return 1;
    }
    println!("(report written to {})", o.out);

    if let Some(base) = baseline {
        let fresh: Vec<SimCounts> = pairs
            .iter()
            .map(PairResult::counts)
            .chain(cmp_pairs.iter().map(CmpPairResult::counts))
            .collect();
        let mismatches = count_mismatches(&fresh, &base.counts);
        if mismatches.is_empty() {
            println!(
                "check: all {} pair(s) match the baseline's insts/cycles exactly",
                fresh.len()
            );
        } else {
            for line in &mismatches {
                eprintln!("sst-run bench: FAIL — {line}");
            }
            eprintln!(
                "sst-run bench: FAIL — {} of {} pair(s) differ from the baseline's \
                 simulated counts; the simulators are deterministic, so this is a \
                 behaviour change",
                mismatches.len(),
                fresh.len()
            );
        }
        let base_g = base.geomean;
        let ratio = g / base_g.max(1e-12);
        println!(
            "check: fresh {g:.2} vs baseline {base_g:.2} Minst/s ({:+.1}%)",
            (ratio - 1.0) * 100.0
        );
        if ratio < FAIL_BELOW {
            eprintln!(
                "sst-run bench: FAIL — hot loop is {:.0}% of baseline (< {:.0}%)",
                ratio * 100.0,
                FAIL_BELOW * 100.0
            );
            return 1;
        }
        if !mismatches.is_empty() {
            return 1;
        }
        if ratio < WARN_BELOW {
            eprintln!(
                "sst-run bench: WARNING — hot loop is {:.0}% of baseline (< {:.0}%); \
                 investigate before merging",
                ratio * 100.0,
                WARN_BELOW * 100.0
            );
        }
    }
    0
}

/// The host's available parallelism (1 when unknown). Recorded in the
/// report so a ~1× CMP speedup on a 1-CPU runner reads as expected, not
/// as a regression.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One unmeasured warm-up run, then `repeats` timed runs; returns the
/// (insts, cycles, wall-seconds) triple of the run with the median wall
/// time. The simulations are deterministic, so insts and cycles are
/// identical across runs — only the wall time varies.
fn timed_median<F>(repeats: usize, run_once: F) -> Result<(u64, u64, f64), String>
where
    F: Fn() -> Result<(u64, u64, f64), String>,
{
    run_once()?; // warm-up: faults the pages, grows the allocator
    let mut timed = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        timed.push(run_once()?);
    }
    timed.sort_by(|a, b| a.2.total_cmp(&b.2));
    Ok(timed[timed.len() / 2])
}

/// Times the 16-core SST chip on the memory-bound workload at each entry
/// of [`CMP_THREADS`], printing the thread-scaling speedup. The results
/// are byte-identical across thread counts (the equivalence suite proves
/// it), so the CMP rows differ only in wall time.
fn run_cmp_bench(o: &BenchOpts) -> Result<Vec<CmpPairResult>, String> {
    let model = CoreModel::Sst;
    let label = model.label();
    let mut out: Vec<CmpPairResult> = Vec::new();
    for threads in CMP_THREADS {
        let run_once = || {
            let sys = CmpSystem::homogeneous(
                model.clone(),
                CMP_WORKLOAD,
                o.scale,
                o.seed,
                CMP_CORES,
                &MemConfig::default(),
            )
            .with_threads(threads);
            let started = Instant::now();
            let r = sys.run(BENCH_MAX_CYCLES);
            let insts: u64 = r.per_core.iter().map(|&(_, i)| i).sum();
            Ok((insts, r.cycles, started.elapsed().as_secs_f64()))
        };
        let (insts, cycles, wall) = timed_median(o.repeats, run_once)?;
        let minst_per_s = insts as f64 / 1e6 / wall.max(1e-9);
        println!(
            "  {label:<8} {CMP_WORKLOAD}x{CMP_CORES} t={threads} {insts:>9} insts \
             {cycles:>10} cycles {:>8.1} ms {minst_per_s:>8.2} Minst/s",
            wall * 1e3,
        );
        out.push(CmpPairResult {
            model: label.clone(),
            workload: CMP_WORKLOAD.to_string(),
            cores: CMP_CORES,
            threads,
            insts,
            cycles,
            wall_ms: wall * 1e3,
            minst_per_s,
        });
    }
    if let (Some(serial), Some(parallel)) = (out.first(), out.last()) {
        if serial.threads != parallel.threads {
            let cpus = host_cpus();
            // On a host with fewer CPUs than simulation threads the
            // speedup is honestly ~1x; it is still *recorded* (the
            // report annotates it), but nothing should compare it
            // against a many-core baseline.
            let note = if cpus < parallel.threads {
                " — fewer host cpus than threads, ~1x expected; not compared"
            } else {
                ""
            };
            println!(
                "cmp speedup: {:.2}x at {} thread(s) vs 1 (host cpus: {}){note}",
                serial.wall_ms / parallel.wall_ms.max(1e-9),
                parallel.threads,
                cpus,
            );
        }
    }
    Ok(out)
}

/// `sst-run bench --sampling`: validates SMARTS sampling on a ~10M
/// instruction OLTP run under the SST model.
///
/// Two runs of the same program: fully detailed (every instruction
/// through the timing model) and sampled
/// ([`sst_sim::run_sampled`] — functional skip, functional warming,
/// short detailed intervals). The benchmark reports both CPIs, the
/// relative error, and the sampled run's *effective* throughput (total
/// program instructions over sampled wall time), then gates:
///
/// * accuracy — sampled CPI within [`SAMPLING_MAX_REL_ERR`] of detailed
///   CPI. The simulators are deterministic, so this is enforced
///   unconditionally: exceeding 3% is a modeling bug, not host noise.
/// * throughput — effective rate at least [`SAMPLING_MIN_MINST_PER_S`].
///   Host-dependent, so enforced only under `--check`.
fn run_sampling_bench(o: &BenchOpts) -> i32 {
    let model = CoreModel::Sst;
    // Continuous functional warming: the entire gap between measured
    // intervals runs through the warming path (skip is a single
    // instruction), so cache tags and predictor state track the full
    // reference stream. oltp's working set is far larger than what a
    // short warming window can rebuild — with only burst warming the
    // intervals measure a half-cold hierarchy and overshoot CPI by ~2x.
    let (period, interval) = (2_000_000u64, 20_000u64);
    let scfg = sst_sim::SamplingConfig {
        period,
        interval,
        warm: period - interval - 1,
        ..sst_sim::SamplingConfig::default()
    };
    let make_workload = || sst_workloads::oltp_sized(o.scale, o.seed, 0, SAMPLING_TXNS);
    println!(
        "sst-run bench --sampling: {} on oltp x{} txns, scale={}, seed={}, \
         period {} / interval {} / warm {}, warm-up + median of {}",
        model.label(),
        SAMPLING_TXNS,
        o.scale_token(),
        o.seed,
        scfg.period,
        scfg.interval,
        scfg.warm,
        o.repeats,
    );

    // Fully detailed reference: the whole program through the timing
    // model (cosim off — the sampled path has no checker either). The
    // comparison CPI is the *measured* (post-warm-up) region's: sampled
    // intervals all land past the workload's declared warm-up, so
    // including the detailed run's cold start would bias the reference
    // by exactly the region sampling is designed to skip.
    let detailed_once = || {
        let w = make_workload();
        let sys = System::new(model.clone(), &w).without_cosim();
        let started = Instant::now();
        let r = sys.run_checked(BENCH_MAX_CYCLES).map_err(|e| e.to_string())?;
        Ok((
            r.insts - r.warmup_insts,
            r.cycles - r.warmup_cycles,
            started.elapsed().as_secs_f64(),
        ))
    };
    let (meas_insts, meas_cycles, wall_detailed) = match timed_median(o.repeats, detailed_once) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sst-run bench: sampling (detailed run): {e}");
            return 1;
        }
    };
    let cpi_detailed = meas_cycles as f64 / meas_insts.max(1) as f64;
    println!(
        "  detailed  {meas_insts:>9} measured insts {meas_cycles:>10} cycles {:>8.1} ms  CPI {cpi_detailed:.4}",
        wall_detailed * 1e3,
    );

    // Sampled run: same program, same model. Deterministic, so repeats
    // differ only in wall time; keep the result of the median-wall run.
    let sampled_once = || {
        let w = make_workload();
        let started = Instant::now();
        let r = sst_sim::run_sampled(model.clone(), &w, &scfg).map_err(|e| e.to_string())?;
        Ok((r, started.elapsed().as_secs_f64()))
    };
    let (sampled, wall_sampled) = {
        // One unmeasured warm-up, then `repeats` timed runs; keep the
        // median-wall run (the results themselves are deterministic).
        let runs: Result<Vec<_>, String> =
            (0..=o.repeats).map(|_| sampled_once()).collect();
        match runs {
            Ok(mut rs) => {
                rs.remove(0); // warm-up run, unmeasured
                rs.sort_by(|a, b| a.1.total_cmp(&b.1));
                rs.swap_remove(rs.len() / 2)
            }
            Err(e) => {
                eprintln!("sst-run bench: sampling (sampled run): {e}");
                return 1;
            }
        }
    };
    let cpi_sampled = sampled.cpi;
    let effective = sampled.insts as f64 / 1e6 / wall_sampled.max(1e-9);
    let rel_err = (cpi_sampled - cpi_detailed).abs() / cpi_detailed.max(f64::MIN_POSITIVE);
    println!(
        "  sampled   {:>9} insts ({} intervals, {} detailed) {:>8.1} ms  CPI {cpi_sampled:.4} ± {:.4}",
        sampled.insts,
        sampled.intervals,
        sampled.detailed_insts,
        wall_sampled * 1e3,
        sampled.ci95,
    );
    println!(
        "  effective {effective:.1} Minst/s ({:.1}x over detailed), CPI error {:+.2}%",
        wall_detailed / wall_sampled.max(1e-9),
        (cpi_sampled / cpi_detailed - 1.0) * 100.0,
    );

    let pass_accuracy = rel_err <= SAMPLING_MAX_REL_ERR;
    let pass_throughput = effective >= SAMPLING_MIN_MINST_PER_S;
    let doc = JVal::obj([
        ("version", JVal::str(env!("CARGO_PKG_VERSION"))),
        ("scale", JVal::str(o.scale_token())),
        ("seed", JVal::Int(o.seed)),
        ("model", JVal::str(model.label())),
        ("workload", JVal::str("oltp")),
        ("txns", JVal::Int(SAMPLING_TXNS as u64)),
        ("insts", JVal::Int(sampled.insts)),
        ("period", JVal::Int(scfg.period)),
        ("interval", JVal::Int(scfg.interval)),
        ("warm", JVal::Int(scfg.warm)),
        ("intervals", JVal::Int(sampled.intervals as u64)),
        ("detailed_insts", JVal::Int(sampled.detailed_insts)),
        // Post-warm-up (measured) region of the fully detailed run —
        // the region systematic sampling estimates.
        ("cpi_detailed", JVal::Num(cpi_detailed)),
        ("cpi_sampled", JVal::Num(cpi_sampled)),
        ("ci95", JVal::Num(sampled.ci95)),
        ("cpi_rel_err", JVal::Num(rel_err)),
        ("max_cpi_rel_err", JVal::Num(SAMPLING_MAX_REL_ERR)),
        ("wall_ms_detailed", JVal::Num(wall_detailed * 1e3)),
        ("wall_ms_sampled", JVal::Num(wall_sampled * 1e3)),
        ("effective_minst_per_s", JVal::Num(effective)),
        (
            "min_effective_minst_per_s",
            JVal::Num(SAMPLING_MIN_MINST_PER_S),
        ),
        (
            "speedup_over_detailed",
            JVal::Num(wall_detailed / wall_sampled.max(1e-9)),
        ),
        ("pass_accuracy", JVal::Bool(pass_accuracy)),
        ("pass_throughput", JVal::Bool(pass_throughput)),
    ]);
    if let Err(e) = std::fs::write(&o.out, doc.render_pretty()) {
        eprintln!("sst-run bench: cannot write {}: {e}", o.out);
        return 1;
    }
    println!("(report written to {})", o.out);

    if !pass_accuracy {
        eprintln!(
            "sst-run bench: FAIL — sampled CPI off by {:.2}% (> {:.0}%)",
            rel_err * 100.0,
            SAMPLING_MAX_REL_ERR * 100.0
        );
        return 1;
    }
    if o.check && !pass_throughput {
        eprintln!(
            "sst-run bench: FAIL — sampled mode at {effective:.1} Minst/s effective \
             (< {SAMPLING_MIN_MINST_PER_S:.0})",
        );
        return 1;
    }
    0
}

/// Prints the per-model host wall-time breakdown gathered from the
/// profiled runs: where the *simulator* spends its time, per pipeline
/// stage. `mem` (the memory walk) runs inside issue/replay and is shown
/// as an overlapping share of the same total rather than a column that
/// would make the rows sum past 100%.
fn print_host_profile(prof_by_model: &BTreeMap<String, HostTimes>) {
    if prof_by_model.is_empty() {
        return;
    }
    println!("host profile (one instrumented run per pair, share of model wall time):");
    println!(
        "  {:<8} {:>7} {:>7} {:>7} {:>7} {:>9} {:>10}",
        "model", "fetch", "decode", "issue", "replay", "mem(ovl)", "total ms"
    );
    for (model, t) in prof_by_model {
        let total = t.total_ns().max(1) as f64;
        let pct = |s: Stage| t.get(s) as f64 * 100.0 / total;
        println!(
            "  {model:<8} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>8.1}% {:>10.1}",
            pct(Stage::Fetch),
            pct(Stage::Decode),
            pct(Stage::Issue),
            pct(Stage::Replay),
            pct(Stage::MemTick),
            total / 1e6,
        );
    }
}

fn render_report(
    o: &BenchOpts,
    pairs: &[PairResult],
    cmp_pairs: &[CmpPairResult],
    prof_by_model: &BTreeMap<String, HostTimes>,
    g: f64,
    host_cpus: usize,
) -> String {
    let cmp_speedup = match (cmp_pairs.first(), cmp_pairs.last()) {
        (Some(s), Some(p)) if s.threads != p.threads => {
            Some(s.wall_ms / p.wall_ms.max(1e-9))
        }
        _ => None,
    };
    let mut fields = vec![
        ("version".to_string(), JVal::str(env!("CARGO_PKG_VERSION"))),
        ("scale".to_string(), JVal::str(o.scale_token())),
        ("seed".to_string(), JVal::Int(o.seed)),
        ("fast_forward".to_string(), JVal::Bool(o.fast_forward)),
        ("repeats".to_string(), JVal::Int(o.repeats as u64)),
        ("host_cpus".to_string(), JVal::Int(host_cpus as u64)),
        (
            "pairs".to_string(),
            JVal::Arr(
                pairs
                    .iter()
                    .map(|p| {
                        JVal::obj([
                            ("model", JVal::str(&p.model)),
                            ("workload", JVal::str(&p.workload)),
                            ("insts", JVal::Int(p.insts)),
                            ("cycles", JVal::Int(p.cycles)),
                            ("wall_ms", JVal::Num(p.wall_ms)),
                            ("minst_per_s", JVal::Num(p.minst_per_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cmp_pairs".to_string(),
            JVal::Arr(
                cmp_pairs
                    .iter()
                    .map(|p| {
                        JVal::obj([
                            ("model", JVal::str(&p.model)),
                            ("workload", JVal::str(&p.workload)),
                            ("cores", JVal::Int(p.cores as u64)),
                            ("threads", JVal::Int(p.threads as u64)),
                            ("insts", JVal::Int(p.insts)),
                            ("cycles", JVal::Int(p.cycles)),
                            ("wall_ms", JVal::Num(p.wall_ms)),
                            ("minst_per_s", JVal::Num(p.minst_per_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(s) = cmp_speedup {
        fields.push(("cmp_parallel_speedup".to_string(), JVal::Num(s)));
        // Recorded even on hosts with fewer CPUs than simulation
        // threads; this flag tells readers whether the number is a
        // meaningful scaling measurement (enough host parallelism) or an
        // honest ~1x from an oversubscribed host that must not be
        // compared against a baseline.
        let max_threads = cmp_pairs.iter().map(|p| p.threads).max().unwrap_or(1);
        fields.push((
            "cmp_speedup_expected".to_string(),
            JVal::Bool(host_cpus >= max_threads),
        ));
    }
    if !prof_by_model.is_empty() {
        let per_model: Vec<(String, JVal)> = prof_by_model
            .iter()
            .map(|(model, t)| {
                let mut rows: Vec<(String, JVal)> = t
                    .rows()
                    .into_iter()
                    .map(|(stage, ns)| (format!("{stage}_ns"), JVal::Int(ns)))
                    .collect();
                rows.push(("total_ns".to_string(), JVal::Int(t.total_ns())));
                (model.clone(), JVal::Obj(rows))
            })
            .collect();
        fields.push(("host_profile".to_string(), JVal::Obj(per_model)));
    }
    fields.push(("geomean_minst_per_s".to_string(), JVal::Num(g)));
    JVal::Obj(fields).render_pretty()
}

/// Reads what `--check` needs from a previous report: its scale, seed,
/// geomean, and every `pairs[]`/`cmp_pairs[]` entry's counts. A string
/// scan, not a parser: the file is machine-written by `render_report`,
/// and the harness intentionally has no JSON reader. `None` when the
/// file is missing or any of those fields is unreadable.
fn read_baseline(path: &str) -> Option<Baseline> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut counts = Vec::new();
    for obj in scan_objects(&body, "pairs") {
        let pair = pair_name(scan_field(obj, "model")?, scan_field(obj, "workload")?);
        counts.push(scan_counts(obj, pair)?);
    }
    for obj in scan_objects(&body, "cmp_pairs") {
        let pair = cmp_pair_name(
            scan_field(obj, "model")?,
            scan_field(obj, "workload")?,
            scan_field(obj, "cores")?.parse().ok()?,
            scan_field(obj, "threads")?.parse().ok()?,
        );
        counts.push(scan_counts(obj, pair)?);
    }
    Some(Baseline {
        scale: scan_field(&body, "scale")?.to_string(),
        seed: scan_field(&body, "seed")?.parse().ok()?,
        geomean: scan_field(&body, "geomean_minst_per_s")?.parse().ok()?,
        counts,
    })
}

/// The value text after the first `"key":` in `body`, quotes stripped.
fn scan_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tail = body.split(&format!("\"{key}\":")).nth(1)?;
    let end = tail.find([',', '\n', '}']).unwrap_or(tail.len());
    Some(tail[..end].trim().trim_matches('"'))
}

/// The bodies of the flat objects in the top-level array `key`.
fn scan_objects<'a>(body: &'a str, key: &str) -> Vec<&'a str> {
    let Some(tail) = body.split(&format!("\"{key}\": [")).nth(1) else {
        return Vec::new();
    };
    let array = &tail[..tail.find(']').unwrap_or(tail.len())];
    array
        .split('}')
        .filter_map(|o| o.split_once('{').map(|(_, b)| b))
        .collect()
}

fn scan_counts(obj: &str, pair: String) -> Option<SimCounts> {
    Some(SimCounts {
        pair,
        insts: scan_field(obj, "insts")?.parse().ok()?,
        cycles: scan_field(obj, "cycles")?.parse().ok()?,
    })
}

/// One line per fresh pair whose counts differ from the baseline's, or
/// that the baseline lacks, naming the pair. Empty when all match.
fn count_mismatches(fresh: &[SimCounts], base: &[SimCounts]) -> Vec<String> {
    fresh
        .iter()
        .filter_map(|f| match base.iter().find(|b| b.pair == f.pair) {
            Some(b) if b == f => None,
            Some(b) => Some(format!(
                "{}: insts {} cycles {}, baseline has insts {} cycles {}",
                f.pair, f.insts, f.cycles, b.insts, b.cycles
            )),
            None => Some(format!("{}: not in the baseline", f.pair)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tokens_parse() {
        for t in ["io", "scout", "ea", "sst", "o32", "o64", "o128"] {
            assert!(parse_model(t).is_some(), "{t}");
        }
        assert!(parse_model("warp-drive").is_none());
    }

    #[test]
    fn baseline_scan_reads_what_render_writes() {
        let o = BenchOpts::defaults();
        let pairs = vec![PairResult {
            model: "sst".into(),
            workload: "gzip".into(),
            insts: 1_000_000,
            cycles: 2_000_000,
            wall_ms: 250.0,
            minst_per_s: 4.0,
        }];
        let cmp_pairs = vec![CmpPairResult {
            model: "sst".into(),
            workload: "erp".into(),
            cores: 16,
            threads: 4,
            insts: 3_000_000,
            cycles: 5_000_000,
            wall_ms: 900.0,
            minst_per_s: 3.3,
        }];
        let body = render_report(&o, &pairs, &cmp_pairs, &BTreeMap::new(), 4.0, 1);
        let b = write_and_read_back("scan", &body);
        assert!((b.geomean - 4.0).abs() < 1e-9, "{}", b.geomean);
        assert_eq!((b.scale.as_str(), b.seed), ("smoke", 12345));
        let want: Vec<SimCounts> = vec![pairs[0].counts(), cmp_pairs[0].counts()];
        assert_eq!(b.counts, want);
        assert_eq!(b.counts[1].pair, "sst/erp x16 t4");
    }

    #[test]
    fn missing_baseline_is_none() {
        assert!(read_baseline("/no/such/file.json").is_none());
    }

    /// `--check` fails on any moved count: a one-cycle difference in one
    /// pair is reported by name, and a pair absent from the baseline is
    /// reported too.
    #[test]
    fn count_check_fails_on_any_mismatch() {
        let o = BenchOpts::defaults();
        let pair = |model: &str, cycles| PairResult {
            model: model.into(),
            workload: "oltp".into(),
            insts: 19_073,
            cycles,
            wall_ms: 5.0,
            minst_per_s: 3.8,
        };
        let base_pairs = vec![pair("in-order", 407_751), pair("sst", 98_765)];
        let body = render_report(&o, &base_pairs, &[], &BTreeMap::new(), 3.8, 1);
        let b = write_and_read_back("mismatch", &body);
        let fresh = |pairs: &[PairResult]| pairs.iter().map(PairResult::counts).collect::<Vec<_>>();

        assert!(count_mismatches(&fresh(&base_pairs), &b.counts).is_empty());

        let one_cycle_off = [pair("in-order", 407_751), pair("sst", 98_766)];
        let moved = count_mismatches(&fresh(&one_cycle_off), &b.counts);
        assert_eq!(moved.len(), 1, "{moved:?}");
        assert!(moved[0].starts_with("sst/oltp:"), "{}", moved[0]);
        assert!(
            moved[0].contains("98766") && moved[0].contains("98765"),
            "{}",
            moved[0]
        );

        let extra = count_mismatches(&fresh(&[pair("ooo-32", 1)]), &b.counts);
        assert_eq!(extra, vec!["ooo-32/oltp: not in the baseline".to_string()]);
    }

    fn write_and_read_back(tag: &str, body: &str) -> Baseline {
        let dir = std::env::temp_dir().join(format!("sst-bench-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_hotloop.json");
        std::fs::write(&path, body).unwrap();
        let b = read_baseline(path.to_str().unwrap()).expect("scan");
        std::fs::remove_dir_all(&dir).ok();
        b
    }

    #[test]
    fn timed_median_warms_up_then_takes_the_median() {
        // Walls: warm-up 100.0 (discarded), then 9.0, 1.0, 5.0 → median 5.0.
        let walls = std::cell::Cell::new(0usize);
        let sched = [100.0, 9.0, 1.0, 5.0];
        let (insts, cycles, wall) = timed_median(3, || {
            let i = walls.get();
            walls.set(i + 1);
            Ok((42, 84, sched[i]))
        })
        .unwrap();
        assert_eq!((insts, cycles), (42, 84));
        assert!((wall - 5.0).abs() < 1e-12, "{wall}");
        assert_eq!(walls.get(), 4, "one warm-up + three timed runs");
    }

    #[test]
    fn timed_median_propagates_failures() {
        let err = timed_median(2, || Err::<(u64, u64, f64), _>("boom".to_string()));
        assert_eq!(err.unwrap_err(), "boom");
    }
}
