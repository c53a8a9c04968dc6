#!/usr/bin/env bash
# Runs the full experiment suite (E1-E12, E14, A1-A4) through the sst-run
# orchestrator: parallel across CPUs, served from results/cache/ on
# repeat runs, with per-experiment CSV/JSON under results/ and a run
# manifest at results/manifest.json.
#
# Environment:
#   SST_EXPS="e4 a1 ..."   run a subset (default: all, which includes the
#                          E14 open-loop traffic sweep; set e.g.
#                          SST_EXPS="e14" for just the load sweep, or list
#                          ids without e14 to skip it). Long names
#                          (e4_vs_ooo, a3_confidence_gate) work too.
#   SST_JOBS=N             worker threads (default: all cores)
#   SST_SCALE=smoke|full   workload scale (default full)
#   SST_SEED, SST_RESULTS, SST_MAX_CYCLES — see `sst-run --help`
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p sst-harness

mkdir -p results/logs
jobs_flag=()
[ -n "${SST_JOBS:-}" ] && jobs_flag=(--jobs "$SST_JOBS")

if [ -n "${SST_EXPS:-}" ]; then
    # Word-splitting of SST_EXPS into separate experiment tokens is the
    # interface: SST_EXPS="e3 e4 a1".
    # shellcheck disable=SC2086
    ./target/release/sst-run $SST_EXPS "${jobs_flag[@]+"${jobs_flag[@]}"}" 2>&1 | tee results/logs/run.txt
else
    ./target/release/sst-run all "${jobs_flag[@]+"${jobs_flag[@]}"}" 2>&1 | tee results/logs/run.txt
fi
echo "all experiments complete; see results/ (manifest: results/manifest.json)"
