//! The two workloads and their timed runs.
//!
//! Every workload uses the full-scale footprint and runs with
//! co-simulation off, as production `sst-run` jobs do; correctness is
//! established by the exact-output checks of [`crate::golden`] and by
//! comparing committed-instruction counts with the functional
//! interpreter. A run repeats the workload within `--seconds`. It times
//! each simulation in pieces and reports the rate of the sum of each
//! piece's fastest time, and the median set-up time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sst_isa::{Interp, Program, StopReason};
use sst_mem::MemConfig;
use sst_sim::{
    run_sampled, CmpResult, CmpSystem, CoreModel, RunResult, SampledResult, SamplingConfig, System,
};
use sst_workloads::{oltp_sized, Scale, Workload};

use crate::golden::{self, Expect};
use crate::report::{describe, median, peak_rss_mb, Metric};

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 12345;
/// The second seed with recorded outputs. Kept out of tuning so that a
/// later claim can be re-checked on inputs it was not written against.
pub const HELD_OUT_SEED: u64 = 4242;
/// Cycle budget per simulation; a run that reaches it has wedged.
pub const MAX_CYCLES: u64 = 2_000_000_000;
/// OLTP transactions: ~10.2M instructions over a 32 MiB chain, the
/// program `sst-run bench --sampling` uses, at the full footprint.
pub const OLTP_TXNS: i64 = 160_000;
/// Simulation threads of the CMP probes: the host budget is two threads.
pub const CMP_THREADS: usize = 2;
/// Fewest repetitions a timed run makes, however long they take.
const MIN_REPS: usize = 3;
/// Fewest set-up samples a timed run takes.
const MIN_SETUPS: usize = 7;
/// Committed instructions per timed piece of a single-core simulation.
pub const PIECE_INSTS: u64 = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    OltpSst,
    GzipLineup,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::OltpSst, Kind::GzipLineup];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OltpSst => "oltp_sst",
            Kind::GzipLineup => "gzip_lineup",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The five pipelines of the lineup, in the paper's order.
pub fn lineup() -> [CoreModel; 5] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo128,
    ]
}

/// The SMARTS schedule of `sst-run bench --sampling`: continuous
/// functional warming between 20k-instruction detailed intervals every
/// 2M instructions.
pub fn sampling_config() -> SamplingConfig {
    let (period, interval) = (2_000_000, 20_000);
    SamplingConfig {
        period,
        interval,
        warm: period - interval - 1,
        ..SamplingConfig::default()
    }
}

pub fn oltp(seed: u64) -> Workload {
    oltp_sized(Scale::Full, seed, 0, OLTP_TXNS)
}

pub fn gzip(seed: u64) -> Workload {
    Workload::by_name("gzip", Scale::Full, seed).expect("gzip is a stock workload")
}

/// Core `id`'s workload seed: element `id` of a SplitMix64 stream
/// anchored at the run seed, as `CmpSystem` derives it.
pub fn core_seed(seed: u64, id: usize) -> u64 {
    let mut s = seed.wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sst_prng::splitmix64(&mut s)
}

/// A CMP over explicit programs (each built for its own address slot).
pub fn cmp_system(ws: &[Workload], threads: usize) -> CmpSystem {
    let programs: Vec<&Program> = ws.iter().map(|w| &w.program).collect();
    CmpSystem::from_programs(CoreModel::Sst, &programs, &MemConfig::default()).with_threads(threads)
}

/// Runs a CMP, turning the driver's wedge panic into an error.
pub fn run_cmp(cmp: CmpSystem) -> Result<CmpResult, String> {
    catch_unwind(AssertUnwindSafe(|| cmp.run(MAX_CYCLES))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "CMP run panicked".into())
    })
}

/// Runs `sys` to halt in pieces of [`PIECE_INSTS`] committed
/// instructions, appending each piece's host seconds to `pieces`. The
/// result is that of `run_checked`: a paused run continues
/// byte-identically.
pub fn run_in_pieces(mut sys: System, pieces: &mut Vec<f64>) -> Result<RunResult, String> {
    let mut target = 0;
    while !sys.halted() {
        target += PIECE_INSTS;
        let t = Instant::now();
        sys.run_insts(target, MAX_CYCLES)
            .map_err(|e| e.to_string())?;
        pieces.push(secs(t));
    }
    Ok(sys.result())
}

/// The oltp program under `run_sampled`, checked against its record.
pub fn run_oltp_sampled(seed: u64, w: &Workload) -> Result<SampledResult, String> {
    let r = run_sampled(CoreModel::Sst, w, &sampling_config()).map_err(|e| e.to_string())?;
    Expect::new("oltp_sampled", seed).check(golden::of_sampled(&r))?;
    Ok(r)
}

pub fn run_detailed(model: CoreModel, w: &Workload) -> Result<RunResult, String> {
    System::new(model, w)
        .without_cosim()
        .run_checked(MAX_CYCLES)
        .map_err(|e| e.to_string())
}

/// Instructions the functional interpreter retires running `p` to halt.
pub fn functional_insts(p: &Program) -> Result<u64, String> {
    let out = Interp::new(p)
        .run(u64::MAX)
        .map_err(|t| format!("reference trapped: {t}"))?;
    if out.stop != StopReason::Halt {
        return Err("reference did not halt".into());
    }
    Ok(out.steps)
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What a run did: simulations attempted and failed, the figures, and a
/// note per failure.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Further report lines: sample summaries, fingerprints, spans.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one simulation; an `Err` is a failure with its reason.
    pub fn attempt<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(e);
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// One repetition of a timed run.
struct Rep {
    setup_s: f64,
    /// Host seconds of each piece of the simulation, in program order.
    /// Every repetition makes the same pieces.
    pieces: Vec<f64>,
    /// Committed simulated instructions.
    insts: u64,
    cpi: f64,
}

/// Repeats `rep` at least [`MIN_REPS`] times, and further while one more
/// repetition as long as the last still ends by `until`. Then tops the
/// set-up samples up to [`MIN_SETUPS`] with `setup`, which builds and
/// drops one instance.
///
/// The rate is the instructions over the sum of each piece's fastest
/// time across the repetitions. Every repetition does the same simulated
/// work, so host interference can only add time. The shared host this
/// was written on switches between a fast and a slow state, about 1.6
/// times apart, every few seconds; a piece of tens of milliseconds falls
/// in one state and, over several repetitions, meets the fast one at
/// least once. The median and tail of whole repetitions are printed
/// beside it.
fn repeat(
    out: &mut Outcome,
    until: Instant,
    mut rep: impl FnMut() -> Result<Rep, String>,
    mut setup: impl FnMut(),
) -> Timing {
    let (mut setups, mut runs, mut last) = (Vec::new(), Vec::<Vec<f64>>::new(), None);
    let (mut reps, mut rep_time) = (0, Duration::ZERO);
    while reps < MIN_REPS || Instant::now() + rep_time <= until {
        reps += 1;
        let t = Instant::now();
        if let Some(r) = out.attempt(rep()) {
            setups.push(r.setup_s);
            runs.push(r.pieces.clone());
            last = Some(r);
        }
        rep_time = t.elapsed();
    }
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        setup();
        setups.push(secs(t));
    }
    let (minst_per_s, cpi) = match &last {
        Some(r) => {
            let best = fastest_pieces(&runs);
            let sims: Vec<f64> = runs.iter().map(|p| p.iter().sum()).collect();
            out.lines.push(format!(
                "  simulation time per repetition: {}; sum over {} pieces of each piece's fastest {best:.4} s",
                describe(&sims, "s"),
                r.pieces.len()
            ));
            (r.insts as f64 / 1e6 / best, r.cpi)
        }
        None => (f64::NAN, f64::NAN),
    };
    out.lines
        .push(format!("  setup_s samples: {}", describe(&setups, "s")));
    Timing {
        minst_per_s,
        setup_s: median(&setups),
        cpi,
    }
}

/// The sum over pieces of each piece's fastest time across `runs`. They
/// hold the same number of pieces: only repetitions whose exact outputs
/// agree are kept, and a run's outputs fix where its pieces end.
fn fastest_pieces(runs: &[Vec<f64>]) -> f64 {
    (0..runs[0].len())
        .map(|i| runs.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// What [`repeat`] measured.
struct Timing {
    minst_per_s: f64,
    setup_s: f64,
    cpi: f64,
}

/// The end-to-end metrics, in report order.
fn end_to_end(t: Timing, rss: Option<f64>, accuracy: f64) -> Vec<Metric> {
    vec![
        Metric::new("minst_per_s", "Minst/s", t.minst_per_s),
        Metric::new("setup_s", "s", t.setup_s),
        Metric::new("peak_rss_mb", "MB", rss.unwrap_or(f64::NAN)),
        Metric::new("sim_cpi", "cycles/inst", t.cpi),
        Metric::new("cpi_accuracy_pct", "%", accuracy),
    ]
}

/// Checks that `got` committed instructions match the functional run of
/// `p`.
fn check_insts(out: &mut Outcome, what: &str, p: &Program, got: u64) {
    let r = functional_insts(p).and_then(|want| {
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "{what}: committed {got} instructions, interpreter retired {want}"
            ))
        }
    });
    out.attempt(r);
}

pub fn timed(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    match kind {
        Kind::OltpSst => {
            // The sampled run of the same program, whose CPI the detailed
            // runs judge. It runs first, inside the run's time.
            let sampled = out.attempt(run_oltp_sampled(seed, &oltp(seed)));
            let mut expect = Expect::new("oltp_sst", seed);
            let mut detailed = None;
            let rep = || {
                let t = Instant::now();
                let w = oltp(seed);
                let sys = System::new(CoreModel::Sst, &w).without_cosim();
                let setup_s = secs(t);
                let mut pieces = Vec::new();
                let r = run_in_pieces(sys, &mut pieces)?;
                expect.check(golden::of_run(&r))?;
                let rep = Rep {
                    setup_s,
                    pieces,
                    insts: r.insts,
                    cpi: r.cycles as f64 / r.insts as f64,
                };
                detailed = Some(r);
                Ok(rep)
            };
            let setup = || drop(System::new(CoreModel::Sst, &oltp(seed)));
            let timing = repeat(&mut out, until, rep, setup);
            out.lines.extend(expect.line(seed));
            if let Some(s) = &sampled {
                out.lines.push(format!(
                    "golden oltp_sampled {seed} {}",
                    golden::of_sampled(s)
                ));
            }
            let rss = peak_rss_mb();
            if let Some(r) = &detailed {
                check_insts(&mut out, "oltp_sst", &oltp(seed).program, r.insts);
            }
            let accuracy = match (&detailed, &sampled) {
                (Some(r), Some(s)) => {
                    if s.insts != r.insts {
                        out.attempt::<()>(Err(format!(
                            "oltp_sst: sampled run committed {}, detailed {}",
                            s.insts, r.insts
                        )));
                    }
                    // The detailed CPI over the post-warm-up region the
                    // sampled intervals cover.
                    let cpi = r.measured_cycles() as f64 / (r.insts - r.warmup_insts) as f64;
                    out.lines.push(format!(
                        "  CPI sampled {:.4} detailed post-warm-up {cpi:.4}",
                        s.cpi
                    ));
                    100.0 * (1.0 - (s.cpi - cpi).abs() / cpi)
                }
                _ => f64::NAN,
            };
            out.metrics = end_to_end(timing, rss, accuracy);
        }
        Kind::GzipLineup => {
            let mut expect = Expect::new("gzip_lineup", seed);
            let mut insts = Vec::new();
            let rep = || {
                let t = Instant::now();
                let w = gzip(seed);
                let systems: Vec<System> = lineup()
                    .into_iter()
                    .map(|m| System::new(m, &w).without_cosim())
                    .collect();
                let setup_s = secs(t);
                let mut pieces = Vec::new();
                let results = systems
                    .into_iter()
                    .map(|sys| run_in_pieces(sys, &mut pieces))
                    .collect::<Result<Vec<_>, _>>()?;
                expect.check(golden::of_runs(&results))?;
                insts = results.iter().map(|r| r.insts).collect();
                Ok(Rep {
                    setup_s,
                    pieces,
                    insts: results.iter().map(|r| r.insts).sum(),
                    cpi: sst_sim::geomean(
                        &results
                            .iter()
                            .map(|r| r.cycles as f64 / r.insts as f64)
                            .collect::<Vec<_>>(),
                    ),
                })
            };
            let setup = || {
                let w = gzip(seed);
                drop(
                    lineup()
                        .into_iter()
                        .map(|m| System::new(m, &w).without_cosim())
                        .collect::<Vec<_>>(),
                );
            };
            let timing = repeat(&mut out, until, rep, setup);
            out.lines.extend(expect.line(seed));
            let rss = peak_rss_mb();
            let p = gzip(seed).program;
            for (m, &n) in lineup().iter().zip(&insts) {
                check_insts(&mut out, &format!("gzip_lineup {}", m.label()), &p, n);
            }
            out.metrics = end_to_end(timing, rss, 100.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_pieces_takes_each_piece_from_its_best_run() {
        let runs = vec![
            vec![1.0, 5.0, 2.0],
            vec![3.0, 4.0, 2.5],
            vec![2.0, 6.0, 1.5],
        ];
        assert_eq!(fastest_pieces(&runs), 1.0 + 4.0 + 1.5);
    }

    #[test]
    fn pieces_give_the_uninterrupted_result() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let whole = run_detailed(CoreModel::Sst, &w).unwrap();
        let mut pieces = Vec::new();
        let r =
            run_in_pieces(System::new(CoreModel::Sst, &w).without_cosim(), &mut pieces).unwrap();
        assert_eq!(golden::of_run(&r), golden::of_run(&whole));
        assert_eq!(pieces.len() as u64, r.insts.div_ceil(PIECE_INSTS));
    }
}
