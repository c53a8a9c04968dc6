//! Exact-output checks.
//!
//! The simulator is deterministic: for a given program and model, every
//! simulated count is fixed. Each result is reduced to a [`Fingerprint`]
//! (instructions, cycles and a digest of every counter the run returns),
//! and compared with the first repetition of the same invocation and, at
//! the seeds recorded in `golden.txt`, with the recorded value. Any
//! difference is a failed simulation: a change that only makes the host
//! faster must not move a simulated cycle.

use sst_mem::MemStats;
use sst_sim::{CmpResult, RunResult, SampledResult};

/// The recorded fingerprints, one line per `(workload, seed)`.
const GOLDEN: &str = include_str!("../golden.txt");

/// Summary of one simulation's complete output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub insts: u64,
    pub cycles: u64,
    /// FNV-1a over every simulated count in the result.
    pub digest: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {:016x}", self.insts, self.cycles, self.digest)
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn named(&mut self, name: &str, x: u64) {
        self.bytes(name.as_bytes());
        self.bytes(b"=");
        self.u64(x);
    }

    fn mem(&mut self, m: &MemStats) {
        for c in m.l1i.iter().chain(&m.l1d).chain(std::iter::once(&m.l2)) {
            self.u64(c.accesses);
            self.u64(c.hits);
            self.u64(c.writebacks);
        }
        for x in [
            m.dram_reads,
            m.dram_row_hits,
            m.dram_writebacks,
            m.mshr_merges,
            m.mshr_full_delays,
            m.prefetches,
            m.useful_prefetches,
        ] {
            self.u64(x);
        }
    }

    fn run(&mut self, r: &RunResult) {
        self.bytes(r.model.as_bytes());
        self.named("insts", r.insts);
        self.named("cycles", r.cycles);
        self.named("warmup_insts", r.warmup_insts);
        self.named("warmup_cycles", r.warmup_cycles);
        for (n, v) in r.counters.iter().chain(&r.phases) {
            self.named(n, *v);
        }
        for &x in &r.inst_mix {
            self.u64(x);
        }
        self.mem(&r.mem);
    }
}

/// Fingerprint of a single-core detailed run.
pub fn of_run(r: &RunResult) -> Fingerprint {
    of_runs(std::slice::from_ref(r))
}

/// Fingerprint of several detailed runs taken together (the lineup):
/// summed instructions and cycles, one digest over all of them.
pub fn of_runs(rs: &[RunResult]) -> Fingerprint {
    let mut h = Fnv::new();
    for r in rs {
        h.run(r);
    }
    Fingerprint {
        insts: rs.iter().map(|r| r.insts).sum(),
        cycles: rs.iter().map(|r| r.cycles).sum(),
        digest: h.0,
    }
}

/// Fingerprint of a sampled run; the CPIs are compared bit for bit.
pub fn of_sampled(r: &SampledResult) -> Fingerprint {
    let mut h = Fnv::new();
    h.named("intervals", r.intervals as u64);
    h.named("detailed_insts", r.detailed_insts);
    h.named("cpi", r.cpi.to_bits());
    h.named("ci95", r.ci95.to_bits());
    for c in &r.cpis {
        h.u64(c.to_bits());
    }
    Fingerprint {
        insts: r.insts,
        cycles: r.detailed_cycles,
        digest: h.0,
    }
}

/// Fingerprint of a CMP run: per-core counts, makespan, shared memory.
pub fn of_cmp(r: &CmpResult) -> Fingerprint {
    let mut h = Fnv::new();
    for &(c, i) in &r.per_core {
        h.u64(c);
        h.u64(i);
    }
    h.named("makespan", r.cycles);
    h.mem(&r.mem);
    Fingerprint {
        insts: r.per_core.iter().map(|&(_, i)| i).sum(),
        cycles: r.per_core.iter().map(|&(c, _)| c).sum(),
        digest: h.0,
    }
}

/// Looks up the recorded fingerprint for `(workload, seed)` in `table`
/// (the format of `golden.txt`: `workload seed insts cycles digest`,
/// `#` comments).
pub fn lookup_in(table: &str, workload: &str, seed: u64) -> Option<Fingerprint> {
    table.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 || f[0].starts_with('#') || f[0] != workload || f[1].parse() != Ok(seed) {
            return None;
        }
        Some(Fingerprint {
            insts: f[2].parse().ok()?,
            cycles: f[3].parse().ok()?,
            digest: u64::from_str_radix(f[4], 16).ok()?,
        })
    })
}

/// The recorded fingerprint for `(workload, seed)`, if any.
pub fn lookup(workload: &str, seed: u64) -> Option<Fingerprint> {
    lookup_in(GOLDEN, workload, seed)
}

/// Checks one result against what this invocation expects of it: the
/// recorded fingerprint when there is one, else the first repetition's.
/// The first result of an invocation with no record becomes the
/// expectation.
pub struct Expect {
    what: &'static str,
    expected: Option<Fingerprint>,
}

impl Expect {
    pub fn new(what: &'static str, seed: u64) -> Expect {
        Expect {
            what,
            expected: lookup(what, seed),
        }
    }

    /// The `golden.txt` line for what this invocation saw.
    pub fn line(&self, seed: u64) -> Option<String> {
        self.expected
            .map(|fp| format!("golden {} {seed} {fp}", self.what))
    }

    /// `Err` describes the mismatch.
    pub fn check(&mut self, got: Fingerprint) -> Result<(), String> {
        match self.expected {
            None => {
                self.expected = Some(got);
                Ok(())
            }
            Some(e) if e == got => Ok(()),
            Some(e) => Err(format!("{}: expected {e}, got {got}", self.what)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            model: "sst".into(),
            workload: "oltp".into(),
            cycles: 1000,
            insts: 400,
            warmup_cycles: 100,
            warmup_insts: 40,
            mem: MemStats::new(1),
            counters: vec![("deferred".into(), 7), ("replayed".into(), 5)],
            inst_mix: [400, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            phases: vec![("normal".into(), 600), ("ea".into(), 400)],
        }
    }

    #[test]
    fn any_changed_count_changes_the_fingerprint() {
        let base = of_run(&result());
        let mut r = result();
        r.counters[1].1 += 1;
        assert_ne!(of_run(&r), base, "counter");
        let mut r = result();
        r.phases[0].1 -= 1;
        r.phases[1].1 += 1;
        assert_ne!(of_run(&r), base, "phase split");
        let mut r = result();
        r.mem.l1d[0].hits = 1;
        assert_ne!(of_run(&r), base, "memory");
        let mut r = result();
        r.cycles += 1;
        assert_ne!(of_run(&r), base, "cycles");
        assert_eq!(of_run(&result()), base, "deterministic");
    }

    #[test]
    fn golden_mismatch_is_detected() {
        let fp = of_run(&result());
        let table = format!("# comment\nother 1 1 1 0\noltp_sst 7 {fp}\n");
        assert_eq!(lookup_in(&table, "oltp_sst", 7), Some(fp));
        assert_eq!(lookup_in(&table, "oltp_sst", 8), None);
        assert_eq!(lookup_in(&table, "gzip_lineup", 7), None);

        let mut e = Expect {
            what: "oltp_sst",
            expected: lookup_in(&table, "oltp_sst", 7),
        };
        assert!(e.check(fp).is_ok());
        let mut r = result();
        r.counters[0].1 += 1;
        let err = e.check(of_run(&r)).unwrap_err();
        assert!(
            err.contains("expected") && err.contains("oltp_sst"),
            "{err}"
        );
    }

    #[test]
    fn first_result_is_the_expectation_without_a_record() {
        let mut e = Expect {
            what: "x",
            expected: None,
        };
        let fp = of_run(&result());
        assert!(e.check(fp).is_ok());
        assert!(e.check(fp).is_ok());
        let mut r = result();
        r.insts += 1;
        assert!(e.check(of_run(&r)).is_err());
    }

    #[test]
    fn every_workload_has_both_seeds_recorded() {
        use crate::workloads::{Kind, DEFAULT_SEED, HELD_OUT_SEED};
        for k in Kind::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    lookup(k.name(), seed).is_some(),
                    "{} at seed {seed}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn recorded_table_parses() {
        for line in GOLDEN
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5, "{line}");
            let seed: u64 = f[1].parse().expect("seed");
            assert!(lookup(f[0], seed).is_some(), "{line}");
        }
    }
}
