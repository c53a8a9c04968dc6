//! The traced run: per-layer figures for one workload.
//!
//! Every layer is measured from outside. The benchmark times calls into
//! each crate's public functions inside spans of its own ([`Tracer`]),
//! and reads the counts the simulator already returns (`RunResult`
//! counters, phases and memory statistics, `SampledResult`,
//! `CmpResult`). Each figure is taken on the workload's own program:
//! the oltp program for `oltp_sst` and gzip for the lineup.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sst_branch::{BranchKind, BranchUnit};
use sst_isa::{AluOp, Inst, Interp, MemEffect, Program, Reg, SparseMem, INST_BYTES};
use sst_mem::{AccessKind, MemConfig, MemStats, MemSystem};
use sst_sim::{
    run_sampled, CmpSystem, CoreModel, RunResult, SampledResult, SamplingConfig, System,
};
use sst_uarch::{DeferredQueue, DqEntry, Frontend, FrontendConfig, StoreBuffer, StoreEntry};
use sst_workloads::{oltp_sized, Scale, Workload};

use crate::golden::{self, Expect, Fingerprint};
use crate::report::{median, Metric};
use crate::workloads::{
    cmp_system, core_seed, gzip, lineup, oltp, run_cmp, run_detailed, run_oltp_sampled,
    sampling_config, secs, Kind, Outcome, CMP_THREADS, MAX_CYCLES,
};

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names and units (a unit test holds the two together).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_ms", "ms"),
    ("isa.load_into_ms", "ms"),
    ("isa.run_minst_per_s", "Minst/s"),
    ("isa.run_traced_minst_per_s", "Minst/s"),
    ("isa.mem_clone_ms", "ms"),
    ("mem.access_ns", "ns"),
    ("mem.warm_touch_ns", "ns"),
    ("mem.l1d_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.dram_reads_per_kinst", "1/kinst"),
    ("mem.mshr_merges_per_kinst", "1/kinst"),
    ("mem.mshr_full_delays", "count"),
    ("mem.prefetch_useful_ratio", "ratio"),
    ("branch.predict_update_ns", "ns"),
    ("branch.cond_mispredict_ratio", "ratio"),
    ("uarch.fetch_ns_per_inst", "ns"),
    ("uarch.dq_ns_per_defer", "ns"),
    ("uarch.stb_ns_per_store", "ns"),
    ("uarch.defers_per_kinst", "1/kinst"),
    ("uarch.replay_per_defer", "ratio"),
    ("uarch.redefer_ratio", "ratio"),
    ("uarch.dq_full_stall_frac", "ratio"),
    ("core.ns_per_sim_cycle", "ns"),
    ("core.phase_normal_frac", "ratio"),
    ("core.phase_ea_frac", "ratio"),
    ("core.phase_replay_frac", "ratio"),
    ("core.phase_scout_frac", "ratio"),
    ("core.phase_gated_frac", "ratio"),
    ("core.fail_per_episode", "ratio"),
    ("core.scout_minst_per_s", "Minst/s"),
    ("core.ea_minst_per_s", "Minst/s"),
    ("core.sst_minst_per_s", "Minst/s"),
    ("inorder.minst_per_s", "Minst/s"),
    ("ooo.minst_per_s", "Minst/s"),
    ("sim.fast_forward_speedup", "x"),
    ("sim.cosim_overhead", "x"),
    ("sim.cmp_parallel_speedup", "x"),
    ("sim.sampled_minst_per_s", "Minst/s"),
    ("sim.sampled_detail_frac", "ratio"),
    ("sim.sampled_intervals", "count"),
    ("obs.trace_overhead", "x"),
    ("obs.prof_overhead", "x"),
    ("bench.trace_overhead_pct", "%"),
];

/// Instructions of the program's prefix used for the per-model and
/// driver-option comparisons.
const PREFIX_INSTS: u64 = 300_000;
/// Instructions captured for the memory, branch and fetch replays.
const CAPTURE_INSTS: u64 = 1_000_000;
/// Transactions per core of the two-core oltp CMP probe (~0.5M
/// instructions each over the full 32 MiB chain).
const CMP_PROBE_TXNS: i64 = 8_000;
/// Defers and stores per DQ / STB microbenchmark round.
const QUEUE_OPS: u64 = 200_000;
/// The prefix runs of each round: the span each runs in (none for the
/// bare plain run), what a mismatch with the plain result is reported
/// as, how the system is built, and the figure its wall time over the
/// bare plain run's gives.
type Variant = (
    Option<&'static str>,
    &'static str,
    fn(&Workload) -> System,
    &'static str,
);
const PREFIX_VARIANTS: [Variant; 6] = [
    (None, "plain prefix", plain, ""),
    (
        Some("sim.prefix"),
        "plain prefix in a span",
        plain,
        "bench.trace_overhead_pct",
    ),
    (
        Some("sim.prefix_no_fast_forward"),
        "fast-forward off",
        |w| plain(w).without_fast_forward(),
        "sim.fast_forward_speedup",
    ),
    (
        Some("sim.prefix_cosim"),
        "cosim on",
        |w| System::new(CoreModel::Sst, w),
        "sim.cosim_overhead",
    ),
    (
        Some("obs.prefix_tracing"),
        "tracing on",
        |w| plain(w).with_tracing(),
        "obs.trace_overhead",
    ),
    (
        Some("obs.prefix_host_prof"),
        "host profiling on",
        |w| plain(w).with_host_prof(),
        "obs.prof_overhead",
    ),
];

/// The SST model on `w` with co-simulation off, as timed runs use it.
fn plain(w: &Workload) -> System {
    System::new(CoreModel::Sst, w).without_cosim()
}

/// Samples of each set-up layer (median taken).
const SETUP_REPEATS: usize = 3;
/// Fewest rounds of the layer microbenchmarks.
const MIN_ROUNDS: usize = 3;

/// Span recorder: name, parent and duration of each timed call, kept in
/// memory and summarised when the run ends.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<(&'static str, Option<usize>, u128)>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push((name, self.open.last().copied(), 0));
        self.open.push(id);
        let t = Instant::now();
        let v = f(self);
        self.spans[id].2 = t.elapsed().as_nanos();
        self.open.pop();
        v
    }

    /// One line per span name: calls, total and self time (total minus
    /// the time of its child spans), in first-seen order.
    pub fn summary(&self) -> Vec<String> {
        let mut rows: Vec<(&str, u64, u128, u128)> = Vec::new();
        for (i, &(name, _, ns)) in self.spans.iter().enumerate() {
            let child: u128 = self
                .spans
                .iter()
                .filter(|s| s.1 == Some(i))
                .map(|s| s.2)
                .sum();
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += ns;
                    r.3 += ns - child.min(ns);
                }
                None => rows.push((name, 1, ns, ns - child.min(ns))),
            }
        }
        rows.into_iter()
            .map(|(n, c, t, s)| {
                format!(
                    "  span {n:<28} calls {c:>4}  total {:>10.3} ms  self {:>10.3} ms",
                    t as f64 / 1e6,
                    s as f64 / 1e6
                )
            })
            .collect()
    }
}

/// Collects the figures of one traced run under the catalogue's units.
#[derive(Default)]
struct Layers {
    out: Vec<Metric>,
}

impl Layers {
    fn unit(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push(Metric::new(name, Layers::unit(name), value));
    }

    fn ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.out
            .push(Metric::ratio(name, Layers::unit(name), num, den, 1.0));
    }

    fn per_kinst(&mut self, name: &'static str, num: u64, insts: u64) {
        self.out
            .push(Metric::ratio(name, Layers::unit(name), num, insts, 1000.0));
    }

    /// The figures in catalogue order; `Err` names a missing or repeated
    /// figure.
    fn finish(mut self) -> Result<Vec<Metric>, String> {
        let mut ordered = Vec::new();
        for (name, _) in PER_LAYER {
            let n = self.out.iter().filter(|m| m.name == name).count();
            if n != 1 {
                return Err(format!("traced run produced {name} {n} times"));
            }
            let i = self
                .out
                .iter()
                .position(|m| m.name == name)
                .expect("counted above");
            ordered.push(self.out.swap_remove(i));
        }
        Ok(ordered)
    }
}

/// Memory-hierarchy counts of a run that committed `insts` instructions.
fn mem_counts(l: &mut Layers, m: &MemStats, insts: u64) {
    let l1d_hits = m.l1d.iter().map(|c| c.hits).sum();
    let l1d_accesses = m.l1d.iter().map(|c| c.accesses).sum();
    l.ratio("mem.l1d_hit_ratio", l1d_hits, l1d_accesses);
    l.ratio("mem.l2_hit_ratio", m.l2.hits, m.l2.accesses);
    l.per_kinst("mem.dram_reads_per_kinst", m.dram_reads, insts);
    l.per_kinst("mem.mshr_merges_per_kinst", m.mshr_merges, insts);
    l.put("mem.mshr_full_delays", m.mshr_full_delays as f64);
    l.ratio(
        "mem.prefetch_useful_ratio",
        m.useful_prefetches,
        m.prefetches,
    );
}

/// Deferral, replay and phase counts of an SST-model run.
fn sst_counts(l: &mut Layers, r: &RunResult) {
    let c = |name: &str| r.counter(name).unwrap_or(0);
    let phase = |name: &str| r.phase(name).unwrap_or(0);
    l.per_kinst("uarch.defers_per_kinst", c("deferred"), r.insts);
    l.ratio("uarch.replay_per_defer", c("replayed"), c("deferred"));
    l.ratio("uarch.redefer_ratio", c("redeferred"), c("replayed"));
    l.ratio("uarch.dq_full_stall_frac", c("stall_dq_full"), r.cycles);
    l.ratio(
        "branch.cond_mispredict_ratio",
        c("cond_mispredictions"),
        c("cond_predictions"),
    );
    l.ratio("core.fail_per_episode", c("fail_branch"), c("episodes"));
    l.ratio("core.phase_normal_frac", phase("normal"), r.cycles);
    l.ratio("core.phase_ea_frac", phase("ea"), r.cycles);
    l.ratio("core.phase_replay_frac", phase("replay"), r.cycles);
    l.ratio("core.phase_scout_frac", phase("scout"), r.cycles);
    l.ratio("core.phase_gated_frac", phase("gated"), r.cycles);
}

/// Runs `sys` for the first `insts` instructions; returns its result so
/// far and the wall time of the run.
fn prefix(mut sys: System, insts: u64) -> Result<(Fingerprint, f64), String> {
    let t = Instant::now();
    sys.run_insts(insts, MAX_CYCLES)
        .map_err(|e| e.to_string())?;
    let wall = secs(t);
    Ok((golden::of_run(&sys.result()), wall))
}

/// Wall time of a prefix run, failing the run if its result differs
/// from the plain run's (every option compared here must leave the
/// simulated result unchanged).
fn same_prefix(out: &mut Outcome, what: &str, plain: Fingerprint, sys: System) -> f64 {
    let r = prefix(sys, PREFIX_INSTS).and_then(|(fp, wall)| {
        if fp == plain {
            Ok(wall)
        } else {
            Err(format!(
                "{what}: prefix result {fp} differs from the plain run's {plain}"
            ))
        }
    });
    out.attempt(r).unwrap_or(f64::NAN)
}

/// Sampling schedule for a program of `insts` instructions: the
/// production schedule where it yields five intervals, otherwise the
/// same shape shrunk to five periods per program. A period of at least
/// 300 keeps `interval + warm < period` for any program length.
fn sampling_for(insts: u64) -> SamplingConfig {
    let cfg = sampling_config();
    if insts >= 5 * cfg.period {
        return cfg;
    }
    let period = (insts / 5).max(300);
    let interval = (period / 100).max(1);
    SamplingConfig {
        period,
        interval,
        warm: period - interval - 1,
        ..cfg
    }
}

/// The control-flow class the front end gives an instruction (the same
/// rule `sst_uarch`'s fetch uses).
fn branch_kind(inst: Inst) -> Option<BranchKind> {
    match inst {
        Inst::Branch { .. } => Some(BranchKind::Conditional),
        Inst::Jal { rd, .. } if rd == Reg::LINK => Some(BranchKind::IndirectCall),
        Inst::Jal { .. } => Some(BranchKind::Direct),
        Inst::Jalr { rd, base, .. } if base == Reg::LINK && rd != Reg::LINK => {
            Some(BranchKind::Return)
        }
        Inst::Jalr { rd, .. } if rd == Reg::LINK => Some(BranchKind::IndirectCall),
        Inst::Jalr { .. } => Some(BranchKind::Indirect),
        _ => None,
    }
}

/// A stretch of the program's reference execution, captured once and
/// replayed into single layers.
struct Capture {
    /// `(pc, next_pc, inst)` per retired instruction.
    steps: Vec<(u64, u64, Inst)>,
    /// `(instruction index, kind, address, pc)` per memory access, with
    /// instruction fetches deduplicated per cache line as a fetch buffer
    /// does.
    accesses: Vec<(u64, AccessKind, u64, u64)>,
    /// `(pc, kind, taken, next_pc)` per control transfer.
    branches: Vec<(u64, BranchKind, bool, u64)>,
}

fn capture(p: &Program, insts: u64) -> Result<Capture, String> {
    let line_mask = !(MemSystem::new(&MemConfig::default(), 1).line_bytes() - 1);
    let mut c = Capture {
        steps: Vec::new(),
        accesses: Vec::new(),
        branches: Vec::new(),
    };
    let mut last_line = u64::MAX;
    Interp::new(p)
        .run_traced(insts, |ev| {
            let i = c.steps.len() as u64;
            c.steps.push((ev.pc, ev.next_pc, ev.inst));
            if ev.pc & line_mask != last_line {
                last_line = ev.pc & line_mask;
                c.accesses.push((i, AccessKind::IFetch, ev.pc, ev.pc));
            }
            match ev.mem {
                MemEffect::Load { addr, .. } => c.accesses.push((i, AccessKind::Load, addr, ev.pc)),
                MemEffect::Store { addr, .. } => {
                    c.accesses.push((i, AccessKind::Store, addr, ev.pc))
                }
                MemEffect::None => {}
            }
            if let Some(kind) = branch_kind(ev.inst) {
                let taken =
                    kind != BranchKind::Conditional || ev.next_pc != ev.pc.wrapping_add(INST_BYTES);
                c.branches.push((ev.pc, kind, taken, ev.next_pc));
            }
        })
        .map_err(|t| format!("capture trapped: {t}"))?;
    Ok(c)
}

fn loaded_mem(p: &Program) -> MemSystem {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    mem
}

/// ns per timed access of the captured stream through a fresh hierarchy,
/// one instruction every two cycles.
fn mem_access_ns(p: &Program, c: &Capture) -> f64 {
    let mut mem = loaded_mem(p);
    let t = Instant::now();
    for &(i, kind, addr, pc) in &c.accesses {
        black_box(mem.access_pc(i * 2, 0, kind, addr, pc));
    }
    secs(t) * 1e9 / c.accesses.len().max(1) as f64
}

/// ns per functional-warming tag touch of the captured stream.
fn warm_touch_ns(c: &Capture) -> f64 {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    let t = Instant::now();
    for &(_, kind, addr, _) in &c.accesses {
        mem.warm_touch(0, kind, addr);
    }
    black_box(&mem);
    secs(t) * 1e9 / c.accesses.len().max(1) as f64
}

/// ns per predict + update of the captured branch stream, through a
/// unit configured as the SST front end's.
fn predict_update_ns(c: &Capture) -> f64 {
    let cfg = FrontendConfig::default();
    let mut unit = BranchUnit::new(cfg.predictor, cfg.btb_entries, cfg.ras_depth);
    let t = Instant::now();
    for &(pc, kind, taken, target) in &c.branches {
        black_box(unit.predict(pc, kind));
        unit.update(pc, kind, taken, target);
    }
    secs(t) * 1e9 / c.branches.len().max(1) as f64
}

/// ns per instruction delivered by the front end (`tick` + `pop`),
/// steered along the captured path: every mispredicted or unpredicted
/// transfer is resolved and redirected the moment it is popped, as a
/// core would at execute.
fn fetch_ns_per_inst(p: &Program, c: &Capture) -> f64 {
    let mut mem = loaded_mem(p);
    let mut fe = Frontend::new(FrontendConfig::default(), p);
    let steps = &c.steps;
    let (mut i, mut now, mut idle) = (0usize, 0u64, 0u64);
    let t = Instant::now();
    while i < steps.len() {
        fe.tick(now, &mut mem.bus(0));
        let before = i;
        while let Some(f) = fe.pop() {
            let (pc, next_pc, inst) = steps[i];
            if f.pc != pc {
                fe.redirect(now, pc);
                break;
            }
            i += 1;
            if let Some(kind) = branch_kind(inst) {
                let taken =
                    kind != BranchKind::Conditional || next_pc != pc.wrapping_add(INST_BYTES);
                fe.resolve(pc, inst, taken, next_pc);
            }
            if i == steps.len() {
                break;
            }
            if f.pred_next_pc != next_pc {
                fe.redirect(now, next_pc);
                break;
            }
        }
        idle = if i == before { idle + 1 } else { 0 };
        if i < steps.len() && (fe.waiting_indirect() || idle > 10_000) && fe.queued() == 0 {
            fe.redirect(now, steps[i].0);
            idle = 0;
        }
        now += 1;
    }
    secs(t) * 1e9 / steps.len().max(1) as f64
}

/// ns per deferred instruction through a DQ held at `occupancy`: push,
/// data-ready update, wake-time query and removal of the oldest entry.
fn dq_ns_per_defer(occupancy: usize, capacity: usize) -> f64 {
    let mut dq = DeferredQueue::new(capacity);
    let entry = |seq: u64| DqEntry {
        seq,
        pc: 0x1000 + seq * INST_BYTES,
        inst: Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::x(5),
            rs1: Reg::x(6),
            imm: 1,
        },
        captured: [None, Some(1)],
        producers: [Some(seq.saturating_sub(1)), None],
        predicted_taken: None,
        pred_next_pc: None,
        data_ready_at: Some(seq + 300),
    };
    let occupancy = occupancy.clamp(1, capacity) as u64;
    for seq in 1..occupancy {
        dq.push(entry(seq));
    }
    let t = Instant::now();
    for seq in occupancy..occupancy + QUEUE_OPS {
        dq.push(entry(seq));
        dq.set_data_ready(seq, seq + 200);
        black_box(dq.next_data_ready());
        dq.remove_seq(seq + 1 - occupancy);
    }
    secs(t) * 1e9 / QUEUE_OPS as f64
}

/// ns per store through an STB held at `occupancy`: push with unknown
/// address, resolve, a forwarding lookup that matches nothing (the common
/// case, and a full scan), and drain of the oldest store.
fn stb_ns_per_store(occupancy: usize, capacity: usize) -> f64 {
    let mut stb = StoreBuffer::new(capacity);
    let addr = |seq: u64| 0x10_0000 + (seq % 4096) * 8;
    let occupancy = occupancy.clamp(1, capacity) as u64;
    for seq in 1..occupancy {
        stb.push(StoreEntry {
            seq,
            addr: Some(addr(seq)),
            bytes: 8,
            value: Some(seq),
        });
    }
    let mut drained = Vec::new();
    let t = Instant::now();
    for seq in occupancy..occupancy + QUEUE_OPS {
        stb.push(StoreEntry {
            seq,
            addr: None,
            bytes: 8,
            value: None,
        });
        stb.resolve(seq, addr(seq), seq);
        black_box(stb.forward(seq + 1, 0x20_0000, 8));
        stb.drain_through_into(seq + 1 - occupancy, &mut drained);
        drained.clear();
    }
    secs(t) * 1e9 / QUEUE_OPS as f64
}

fn build_programs(kind: Kind, seed: u64) -> Vec<Workload> {
    match kind {
        Kind::OltpSst => vec![oltp(seed)],
        Kind::GzipLineup => vec![gzip(seed)],
    }
}

/// The two-core CMP a single-core workload's parallel-driver figure is
/// taken on: its own kernel at address slots 0 and 1.
fn cmp_probe_programs(kind: Kind, seed: u64) -> Vec<Workload> {
    (0..2)
        .map(|slot| match kind {
            Kind::GzipLineup => {
                Workload::by_name_slot("gzip", Scale::Full, core_seed(seed, slot), slot)
                    .expect("gzip is a stock workload")
            }
            Kind::OltpSst => oltp_sized(Scale::Full, core_seed(seed, slot), slot, CMP_PROBE_TXNS),
        })
        .collect()
}

/// CMP wall time at one thread over [`CMP_THREADS`]. Fails the run if
/// the two results differ.
fn cmp_speedup(out: &mut Outcome, tr: &mut Tracer, make: impl Fn(usize) -> CmpSystem) -> f64 {
    let timed = |tr: &mut Tracer, threads| {
        let cmp = make(threads);
        tr.span("sim.cmp_run", |_| {
            let t = Instant::now();
            run_cmp(cmp).map(|r| (r, secs(t)))
        })
    };
    let parallel = out.attempt(timed(tr, CMP_THREADS));
    let serial = out.attempt(timed(tr, 1));
    let (Some(parallel), Some(serial)) = (parallel, serial) else {
        return f64::NAN;
    };
    let (fp_p, fp_s) = (golden::of_cmp(&parallel.0), golden::of_cmp(&serial.0));
    if fp_p != fp_s {
        out.attempt::<()>(Err(format!(
            "CMP at {CMP_THREADS} threads gave {fp_p}, at 1 thread {fp_s}"
        )));
    }
    serial.1 / parallel.1
}

pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut l = Layers::default();
    let mut tr = Tracer::default();

    // Set-up layers.
    let mut builds = Vec::new();
    let mut loads = Vec::new();
    let mut ws = Vec::new();
    for _ in 0..SETUP_REPEATS {
        ws = tr.span("workloads.build", |_| {
            let t = Instant::now();
            let ws = build_programs(kind, seed);
            builds.push(secs(t) * 1e3);
            ws
        });
        tr.span("isa.load_into", |_| {
            let t = Instant::now();
            for w in &ws {
                let mut m = SparseMem::new();
                w.program.load_into(&mut m);
                black_box(&m);
            }
            loads.push(secs(t) * 1e3);
        });
    }
    l.put("workloads.build_ms", median(&builds));
    l.put("isa.load_into_ms", median(&loads));
    let p = &ws[0].program;

    // The workload's own simulation. It also supplies the counts: the
    // memory statistics of the run and an SST run's deferral, replay and
    // phase counters.
    let timed_detailed = |tr: &mut Tracer, model: CoreModel, w: &Workload| {
        tr.span("sim.run_detailed", |_| {
            let t = Instant::now();
            run_detailed(model, w).map(|r| (r, secs(t)))
        })
    };
    // A sampled run with its wall time.
    let mut sampled: Option<(SampledResult, f64)> = None;
    let timed_sampled = |tr: &mut Tracer, run: &dyn Fn() -> Result<SampledResult, String>| {
        tr.span("sim.run_sampled", |_| {
            let t = Instant::now();
            run().map(|r| (r, secs(t)))
        })
    };
    let mut models: Vec<(String, f64)> = Vec::new();
    let (counts, mem_stats, mem_insts, ns_per_cycle) = match kind {
        Kind::OltpSst => {
            let r = timed_sampled(&mut tr, &|| run_oltp_sampled(seed, &ws[0]));
            sampled = out.attempt(r);
            let r = timed_detailed(&mut tr, CoreModel::Sst, &ws[0]).and_then(|(r, wall)| {
                Expect::new("oltp_sst", seed).check(golden::of_run(&r))?;
                Ok((r, wall))
            });
            match out.attempt(r) {
                Some((r, wall)) => {
                    let (m, n, c) = (r.mem.clone(), r.insts, wall * 1e9 / r.cycles as f64);
                    (Some(r), Some(m), n, c)
                }
                None => (None, None, 0, f64::NAN),
            }
        }
        Kind::GzipLineup => {
            let mut results = Vec::new();
            for m in lineup() {
                if let Some((r, wall)) = out.attempt(timed_detailed(&mut tr, m.clone(), &ws[0])) {
                    models.push((m.label(), r.insts as f64 / 1e6 / wall));
                    results.push((r, wall));
                }
            }
            if results.len() == lineup().len() {
                let rs: Vec<RunResult> = results.iter().map(|(r, _)| r.clone()).collect();
                out.attempt(Expect::new("gzip_lineup", seed).check(golden::of_runs(&rs)));
            }
            match results
                .into_iter()
                .find(|(r, _)| r.model == CoreModel::Sst.label())
            {
                Some((r, wall)) => {
                    let (m, n, c) = (r.mem.clone(), r.insts, wall * 1e9 / r.cycles as f64);
                    (Some(r), Some(m), n, c)
                }
                None => (None, None, 0, f64::NAN),
            }
        }
    };
    l.put("core.ns_per_sim_cycle", ns_per_cycle);
    // A failed run leaves its figures out, and `Layers::finish` reports
    // them missing.
    if let Some(m) = &mem_stats {
        mem_counts(&mut l, m, mem_insts);
    }
    if let Some(r) = &counts {
        sst_counts(&mut l, r);
    }

    // Per-model throughput: the lineup's own runs, or a prefix of the
    // program elsewhere.
    if models.is_empty() {
        for m in lineup() {
            let label = m.label();
            let r = tr.span("sim.model_prefix", |_| {
                prefix(System::new(m, &ws[0]).without_cosim(), PREFIX_INSTS)
            });
            if let Some((fp, wall)) = out.attempt(r) {
                models.push((label, fp.insts as f64 / 1e6 / wall));
            }
        }
    }
    for (label, name) in [
        ("in-order", "inorder.minst_per_s"),
        ("scout", "core.scout_minst_per_s"),
        ("ea", "core.ea_minst_per_s"),
        ("sst", "core.sst_minst_per_s"),
        ("ooo-128", "ooo.minst_per_s"),
    ] {
        let v = models
            .iter()
            .find(|(m, _)| m == label)
            .map_or(f64::NAN, |&(_, v)| v);
        l.put(name, v);
    }

    // The same prefix under each driver option is timed in the rounds
    // below; every option must leave this plain result unchanged.
    let plain_fp = out
        .attempt(prefix(plain(&ws[0]), PREFIX_INSTS))
        .map(|(fp, _)| fp);

    // Parallel CMP driver.
    let probe = cmp_probe_programs(kind, seed);
    let speedup = cmp_speedup(&mut out, &mut tr, |t| cmp_system(&probe, t));
    l.put("sim.cmp_parallel_speedup", speedup);

    // Sampling driver: rate and schedule counts.
    let sampled = match sampled {
        Some(s) => Some(s),
        None => {
            let cfg = sampling_for(counts.as_ref().map_or(0, |r| r.insts));
            let r = timed_sampled(&mut tr, &|| {
                run_sampled(CoreModel::Sst, &ws[0], &cfg).map_err(|e| e.to_string())
            });
            out.attempt(r)
        }
    };
    if let Some((s, wall)) = &sampled {
        l.put("sim.sampled_minst_per_s", s.insts as f64 / 1e6 / wall);
        l.ratio("sim.sampled_detail_frac", s.detailed_insts, s.insts);
        l.put("sim.sampled_intervals", s.intervals as f64);
    }

    // Layer microbenchmarks, in rounds until the run's time is used.
    let cap = out.attempt(capture(p, CAPTURE_INSTS));
    let high_water = |name| counts.as_ref().and_then(|r| r.counter(name)).unwrap_or(1) as usize;
    let (dq_hw, stb_hw) = (high_water("dq_high_water"), high_water("stb_high_water"));
    let sst = sst_core::SstConfig::sst();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut prefix_walls: [Vec<f64>; PREFIX_VARIANTS.len()] = Default::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < seconds {
        rounds += 1;
        // One round, its layer calls as child spans.
        tr.span("bench.round", |tr| {
            // The prefix plain and under each option, the starting variant
            // rotating from round to round. "Plain in a span" against bare
            // plain is the cost of the benchmark's own spans.
            if let Some(fp) = plain_fp {
                for k in 0..PREFIX_VARIANTS.len() {
                    let v = (k + rounds) % PREFIX_VARIANTS.len();
                    let (span, what, build, _) = PREFIX_VARIANTS[v];
                    let sys = build(&ws[0]);
                    let wall = match span {
                        Some(name) => tr.span(name, |_| same_prefix(&mut out, what, fp, sys)),
                        None => same_prefix(&mut out, what, fp, sys),
                    };
                    if wall.is_finite() {
                        prefix_walls[v].push(wall);
                    }
                }
            }
            let mut sample = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
            let mut interps: Vec<Interp> = ws.iter().map(|w| Interp::new(&w.program)).collect();
            let t = Instant::now();
            let steps: u64 = tr.span("isa.run", |_| {
                interps
                    .iter_mut()
                    .map(|it| it.run(u64::MAX).map_or(0, |o| o.steps))
                    .sum()
            });
            sample("isa.run_minst_per_s", steps as f64 / 1e6 / secs(t));
            let mut interps: Vec<Interp> = ws.iter().map(|w| Interp::new(&w.program)).collect();
            let t = Instant::now();
            let steps: u64 = tr.span("isa.run_traced", |_| {
                interps
                    .iter_mut()
                    .map(|it| {
                        it.run_traced(u64::MAX, |ev| {
                            black_box(ev);
                        })
                        .map_or(0, |o| o.steps)
                    })
                    .sum()
            });
            sample("isa.run_traced_minst_per_s", steps as f64 / 1e6 / secs(t));
            // A freshly loaded image, as the sampled driver clones it.
            let image = Interp::new(p);
            sample(
                "isa.mem_clone_ms",
                tr.span("isa.mem_clone", |_| {
                    let t = Instant::now();
                    black_box(image.mem().clone());
                    secs(t) * 1e3
                }),
            );
            if let Some(c) = &cap {
                sample(
                    "mem.access_ns",
                    tr.span("mem.access", |_| mem_access_ns(p, c)),
                );
                sample(
                    "mem.warm_touch_ns",
                    tr.span("mem.warm_touch", |_| warm_touch_ns(c)),
                );
                sample(
                    "branch.predict_update_ns",
                    tr.span("branch.predict_update", |_| predict_update_ns(c)),
                );
                sample(
                    "uarch.fetch_ns_per_inst",
                    tr.span("uarch.fetch", |_| fetch_ns_per_inst(p, c)),
                );
            }
            sample(
                "uarch.dq_ns_per_defer",
                tr.span("uarch.dq", |_| dq_ns_per_defer(dq_hw, sst.dq_entries)),
            );
            sample(
                "uarch.stb_ns_per_store",
                tr.span("uarch.stb", |_| stb_ns_per_store(stb_hw, sst.stb_entries)),
            );
        });
    }
    for (name, xs) in &samples {
        l.put(name, median(xs));
    }
    if prefix_walls.iter().all(|w| !w.is_empty()) {
        let bare = median(&prefix_walls[0]);
        for (walls, &(_, _, _, name)) in prefix_walls.iter().zip(&PREFIX_VARIANTS).skip(1) {
            let ratio = median(walls) / bare;
            match name {
                "bench.trace_overhead_pct" => l.put(name, (ratio - 1.0) * 100.0),
                _ => l.put(name, ratio),
            }
        }
    }

    match l.finish() {
        Ok(m) => out.metrics = m,
        Err(e) => {
            out.attempt::<()>(Err(e));
        }
    }
    out.lines
        .push(format!("  layer microbenchmark rounds: {rounds}"));
    out.lines.extend(tr.summary());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            assert!(crate::report::valid_metric_name(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            PER_LAYER.len() + crate::END_TO_END.len()
        );
    }

    #[test]
    fn every_ratio_reports_its_base_counts() {
        let mut l = Layers::default();
        let mut m = MemStats::new(2);
        m.l1d[0].accesses = 10;
        m.l1d[0].hits = 7;
        m.l1d[1].accesses = 10;
        m.l1d[1].hits = 9;
        m.l2.accesses = 4;
        m.l2.hits = 1;
        m.dram_reads = 3;
        m.mshr_merges = 2;
        m.prefetches = 5;
        m.useful_prefetches = 4;
        mem_counts(&mut l, &m, 2000);
        let r = RunResult {
            model: "sst".into(),
            workload: "w".into(),
            cycles: 100,
            insts: 50,
            warmup_cycles: 0,
            warmup_insts: 0,
            mem: MemStats::new(1),
            counters: [
                ("deferred", 20),
                ("replayed", 16),
                ("redeferred", 4),
                ("stall_dq_full", 30),
                ("cond_predictions", 10),
                ("cond_mispredictions", 1),
                ("fail_branch", 2),
                ("episodes", 8),
            ]
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect(),
            inst_mix: [0; 10],
            phases: vec![
                ("normal".into(), 60),
                ("ea".into(), 30),
                ("replay".into(), 10),
            ],
        };
        sst_counts(&mut l, &r);
        let units = ["ratio", "1/kinst"];
        for m in l.out.iter().filter(|m| units.contains(&m.unit)) {
            let (num, den) = m
                .base
                .unwrap_or_else(|| panic!("{} has no base counts", m.name));
            let per = if m.unit == "1/kinst" { 1000.0 } else { 1.0 };
            assert!(
                (m.value - num as f64 * per / den as f64).abs() < 1e-12,
                "{}",
                m.name
            );
        }
        // Every ratio in the catalogue is built here, except the sampled
        // detail fraction, which `traced` also builds with `Layers::ratio`.
        for (name, unit) in PER_LAYER.iter().filter(|(_, u)| units.contains(u)) {
            let built = l.out.iter().any(|m| m.name == *name && m.unit == *unit);
            assert!(built || *name == "sim.sampled_detail_frac", "{name}");
        }
        let get = |name| l.out.iter().find(|m| m.name == name).expect(name).base;
        assert_eq!(get("mem.l1d_hit_ratio"), Some((16, 20)));
        assert_eq!(get("uarch.replay_per_defer"), Some((16, 20)));
        assert_eq!(get("uarch.redefer_ratio"), Some((4, 16)));
        assert_eq!(get("core.phase_ea_frac"), Some((30, 100)));
        assert_eq!(get("core.phase_scout_frac"), Some((0, 100)));
    }

    #[test]
    fn finish_rejects_a_missing_figure() {
        let mut l = Layers::default();
        l.put("workloads.build_ms", 1.0);
        let e = l.finish().unwrap_err();
        assert!(e.contains("isa.load_into_ms"), "{e}");
    }

    #[test]
    fn small_programs_get_five_sampling_periods() {
        let cfg = sampling_for(800_000);
        assert_eq!(cfg.period, 160_000);
        assert!(cfg.interval + cfg.warm < cfg.period && cfg.interval > 0);
        assert_eq!(sampling_for(10_160_496).period, sampling_config().period);
    }

    #[test]
    fn queue_microbenchmarks_hold_their_occupancy() {
        assert!(dq_ns_per_defer(128, 128) > 0.0);
        assert!(dq_ns_per_defer(0, 128) > 0.0);
        assert!(stb_ns_per_store(64, 64) > 0.0);
        assert!(stb_ns_per_store(1, 64) > 0.0);
    }

    #[test]
    fn fetch_replay_delivers_the_captured_path() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let c = capture(&w.program, 20_000).unwrap();
        assert_eq!(c.steps.len(), 20_000);
        assert!(!c.branches.is_empty() && !c.accesses.is_empty());
        assert!(fetch_ns_per_inst(&w.program, &c) > 0.0);
    }
}
