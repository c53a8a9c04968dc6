//! Single-core simulation with warm-up accounting and optional
//! co-simulation.

use sst_isa::InstClass;
use sst_mem::{Cycle, MemConfig, MemStats, MemSystem};
use sst_obs::{HostTimes, TraceBuf};
use sst_uarch::Core;
use sst_workloads::Workload;

use crate::{CoreModel, CosimError, RetireChecker};

/// Result of a single-core run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Model label.
    pub model: String,
    /// Workload name.
    pub workload: String,
    /// Total cycles to `halt`.
    pub cycles: Cycle,
    /// Total instructions committed.
    pub insts: u64,
    /// Cycles consumed by the warm-up window.
    pub warmup_cycles: Cycle,
    /// Instructions in the warm-up window.
    pub warmup_insts: u64,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Model-specific counters (`Core::counters`), in the core's stable
    /// display order: defer rates, stall breakdowns, prediction counts...
    /// Owned keys so results can round-trip through the harness cache.
    pub counters: Vec<(String, u64)>,
    /// Committed-instruction mix, indexed like [`InstClass::ALL`].
    pub inst_mix: [u64; 10],
    /// Per-phase cycle accounting (`Core::phases`), in stable phase
    /// order. The rows sum exactly to [`RunResult::cycles`] — the
    /// trace-equivalence suite pins this for every model — so the table
    /// is a true decomposition of where the run's time went.
    pub phases: Vec<(String, u64)>,
}

impl RunResult {
    /// Whole-run IPC.
    pub fn ipc(&self) -> f64 {
        self.insts as f64 / self.cycles.max(1) as f64
    }

    /// Steady-state IPC (warm-up window excluded).
    ///
    /// Execute-ahead-style cores can commit in large end-of-run bursts
    /// (an epoch that never drains mid-run); when the post-warm-up window
    /// degenerates to under 10% of the run, the whole-run IPC is the
    /// honest figure and is returned instead.
    pub fn measured_ipc(&self) -> f64 {
        let insts = self.insts - self.warmup_insts;
        let cycles = self.cycles - self.warmup_cycles;
        if cycles * 10 < self.cycles {
            return self.ipc();
        }
        insts as f64 / cycles.max(1) as f64
    }

    /// Measured-window cycles.
    pub fn measured_cycles(&self) -> Cycle {
        self.cycles - self.warmup_cycles
    }

    /// Looks up a model counter by name (`None` when the model does not
    /// report it).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Fraction of committed instructions in `class`.
    pub fn mix_fraction(&self, class: InstClass) -> f64 {
        self.inst_mix[class.index()] as f64 / self.insts.max(1) as f64
    }

    /// Looks up a phase row by label (`None` for unknown labels).
    pub fn phase(&self, label: &str) -> Option<u64> {
        self.phases.iter().find(|(n, _)| n == label).map(|(_, v)| *v)
    }
}

/// The trace bundle captured by [`System::run_with_trace`]: the core's
/// typed pipeline events and the memory port's demand-miss lifetimes.
#[derive(Debug)]
pub struct SystemTrace {
    /// The core's event ring (`None` for cores that emit nothing).
    pub core: Option<TraceBuf>,
    /// The memory port's miss-span ring.
    pub mem: Option<TraceBuf>,
}

/// A single core attached to its own memory hierarchy, running one
/// workload.
///
/// Runs can be paused and continued: [`System::run_insts`] advances
/// until a cumulative instruction target and returns; a later call with
/// a larger target carries on from exactly that point, and
/// [`System::result`] reports the run so far. A run paused any number of
/// times ends with the same [`RunResult`] as an uninterrupted one (the
/// `fastforward` suite pins this for every model).
pub struct System {
    core: Box<dyn Core>,
    mem: MemSystem,
    workload_name: &'static str,
    skip_insts: u64,
    model_label: String,
    checker: Option<RetireChecker>,
    fast_forward: bool,
    // Run accumulators. These live on the struct (not in the run loop) so
    // a run paused by `run_insts` and continued later reports the same
    // totals as an uninterrupted one.
    committed: u64,
    warmup_cycles: Cycle,
    inst_mix: [u64; 10],
}

impl System {
    /// Builds a system with the default memory configuration.
    pub fn new(model: CoreModel, workload: &Workload) -> System {
        System::with_mem(model, workload, &MemConfig::default())
    }

    /// Builds a system with an explicit memory configuration (latency and
    /// structure sweeps).
    pub fn with_mem(model: CoreModel, workload: &Workload, mem_cfg: &MemConfig) -> System {
        let mut mem = MemSystem::new(mem_cfg, 1);
        workload.program.load_into(mem.mem_mut());
        System {
            core: model.build(0, &workload.program),
            mem,
            workload_name: workload.name,
            skip_insts: workload.skip_insts,
            model_label: model.label(),
            checker: Some(RetireChecker::new(&workload.program)),
            fast_forward: true,
            committed: 0,
            warmup_cycles: 0,
            inst_mix: [0; 10],
        }
    }

    /// Disables per-commit co-simulation (saves ~2x wall clock on large
    /// sweeps; the test suite keeps it on).
    pub fn without_cosim(mut self) -> System {
        self.checker = None;
        self
    }

    /// Disables idle-cycle fast-forwarding, ticking every cycle one by
    /// one. Fast-forwarding never changes architected results — cycles,
    /// commits, and counters are identical either way (the equivalence
    /// test suite holds this invariant) — so this exists for those tests
    /// and for debugging, not for accuracy.
    pub fn without_fast_forward(mut self) -> System {
        self.fast_forward = false;
        self
    }

    /// Enables typed event tracing on the core and its memory port.
    /// Record-only (the `sst-obs` event-sink contract): a traced run's
    /// [`RunResult`] is byte-identical to an untraced one, which
    /// `crates/sim/tests/trace_equiv.rs` enforces. Collect the events
    /// with [`System::run_with_trace`].
    pub fn with_tracing(mut self) -> System {
        self.core.set_trace(true);
        self.mem.set_trace(0, true);
        self
    }

    /// Enables host-side self-profiling: wall-time scoped timers around
    /// the core's pipeline stages and the memory port's timing walks.
    /// Record-only, like tracing. Collect with
    /// [`System::run_with_profile`].
    pub fn with_host_prof(mut self) -> System {
        self.core.set_host_prof(true);
        self.mem.set_host_prof(true);
        self
    }

    /// Runs to `halt`, co-simulating every commit when enabled.
    ///
    /// # Errors
    ///
    /// Returns the first [`CosimError`], or an error-shaped divergence when
    /// the core fails to finish within `max_cycles`.
    pub fn run_checked(mut self, max_cycles: Cycle) -> Result<RunResult, CosimError> {
        self.run_inner(max_cycles)
    }

    /// Runs to `halt` like [`System::run_checked`], additionally returning
    /// the core's speculation-leakage summary (experiment E13). `None`
    /// unless the model was built with taint tracking enabled — leakage is
    /// deliberately reported out of band of [`RunResult`] so that enabling
    /// taint leaves the performance result byte-identical.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_leakage(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, Option<sst_uarch::LeakageSummary>), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let leakage = self.core.leakage().cloned();
        Ok((result, leakage))
    }

    /// Runs to `halt` like [`System::run_checked`], additionally
    /// returning the captured trace bundle. Enable capture with
    /// [`System::with_tracing`] first; without it both rings are `None`.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_trace(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, SystemTrace), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let trace = SystemTrace {
            core: self.core.take_trace(),
            mem: self.mem.take_trace(0),
        };
        Ok((result, trace))
    }

    /// Runs to `halt` like [`System::run_checked`], additionally
    /// returning the host-side stage times (core stages merged with the
    /// memory port's walk time). Enable with [`System::with_host_prof`]
    /// first; without it the times are `None`.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_profile(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, Option<HostTimes>), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let mut times = self.core.host_times().copied();
        if let Some(m) = self.mem.host_times() {
            times.get_or_insert_with(HostTimes::new).merge(&m);
        }
        Ok((result, times))
    }

    fn run_inner(&mut self, max_cycles: Cycle) -> Result<RunResult, CosimError> {
        self.run_insts(u64::MAX, max_cycles)?;
        Ok(self.result())
    }

    fn drain(&mut self, commits: &mut Vec<sst_uarch::Commit>) -> Result<(), CosimError> {
        self.core.drain_commits_into(commits);
        for c in commits.drain(..) {
            if let Some(ck) = self.checker.as_mut() {
                ck.check(&c)?;
            }
            self.inst_mix[c.inst.class().index()] += 1;
            self.committed += 1;
            if self.committed == self.skip_insts {
                self.warmup_cycles = self.core.cycle();
            }
        }
        Ok(())
    }

    /// Runs until at least `target_insts` total instructions have
    /// committed, or the core halts, whichever comes first. The target is
    /// cumulative over the whole run, so calling again with a larger
    /// target continues where the last call stopped. Pausing never
    /// changes the outcome: the pause point is between full tick
    /// iterations, where no partial pipeline step is in flight, so a run
    /// split into any number of `run_insts` calls ends with the same
    /// [`System::result`] as one uninterrupted call.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_insts(&mut self, target_insts: u64, max_cycles: Cycle) -> Result<(), CosimError> {
        let mut commits = Vec::new();
        while !self.core.halted() {
            if self.committed >= target_insts {
                return Ok(());
            }
            if self.core.cycle() >= max_cycles {
                return Err(CosimError {
                    at: self.committed,
                    what: format!(
                        "{} on {} did not halt within {max_cycles} cycles",
                        self.model_label, self.workload_name
                    ),
                });
            }
            self.core.tick(&mut self.mem.bus(0));
            self.drain(&mut commits)?;
            if self.fast_forward && !self.core.halted() {
                // Bulk-skip provably idle cycles. Clamping to `max_cycles`
                // keeps the timeout check above firing at the same cycle
                // (and with the same commit count) as an unskipped run.
                let target = self.core.next_event_cycle().min(max_cycles);
                if target > self.core.cycle() {
                    self.core.skip_to(target);
                }
            }
        }
        // Drain any commits recorded in the final tick.
        self.drain(&mut commits)
    }

    /// `true` once the core has retired its `halt`.
    pub fn halted(&self) -> bool {
        self.core.halted()
    }

    /// Assembles the [`RunResult`] for the run so far (normally called
    /// once the core has halted).
    pub fn result(&self) -> RunResult {
        RunResult {
            model: self.model_label.clone(),
            workload: self.workload_name.to_string(),
            cycles: self.core.cycle(),
            insts: self.committed,
            warmup_cycles: self.warmup_cycles,
            warmup_insts: self.skip_insts.min(self.committed),
            mem: self.mem.stats(),
            counters: self
                .core
                .counters()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            inst_mix: self.inst_mix,
            phases: self
                .core
                .phases()
                .rows()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// Convenience: build + run one (model, workload) pair, panicking on
    /// divergence — the form the examples and integration tests use.
    pub fn measure(model: CoreModel, workload: &Workload, max_cycles: Cycle) -> RunResult {
        System::new(model, workload)
            .run_checked(max_cycles)
            .expect("co-simulation clean")
    }
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_workloads::{Scale, Workload};

    #[test]
    fn run_produces_sane_result() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let r = System::measure(CoreModel::InOrder, &w, 50_000_000);
        assert!(r.cycles > 0);
        assert!(r.insts > w.skip_insts);
        assert!(r.ipc() > 0.05 && r.ipc() < 2.0, "ipc {}", r.ipc());
        assert!(r.measured_ipc() > 0.0);
        assert!(r.warmup_cycles < r.cycles);
        // Counters and instruction mix ride along on every run.
        assert!(r.counter("issued").unwrap() >= r.insts);
        assert!(r.counter("cond_predictions").unwrap() > 0);
        assert_eq!(r.inst_mix.iter().sum::<u64>(), r.insts);
        assert!(r.mix_fraction(sst_isa::InstClass::Load) > 0.0);
        assert_eq!(r.inst_mix[9], 1, "exactly one halt commits");
    }

    #[test]
    fn sst_counters_surface_speculation_activity() {
        let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
        let r = System::measure(CoreModel::Sst, &w, 100_000_000);
        assert!(r.counter("episodes").unwrap() > 0, "erp must trigger episodes");
        assert!(r.counter("deferred").unwrap() > 0);
        assert!(r.counter("epochs_committed").unwrap() > 0);
        // Unknown names come back as None, not a panic.
        assert_eq!(r.counter("no-such-counter"), None);
    }

    #[test]
    fn cosim_runs_for_all_models_on_a_memory_workload() {
        let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
        for m in CoreModel::lineup() {
            let label = m.label();
            let r = System::new(m, &w)
                .run_checked(100_000_000)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(r.insts > 0);
        }
    }

    #[test]
    fn timeout_is_reported() {
        let w = Workload::by_name("oltp", Scale::Smoke, 3).unwrap();
        let e = System::new(CoreModel::InOrder, &w)
            .run_checked(100)
            .unwrap_err();
        assert!(e.what.contains("did not halt"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
