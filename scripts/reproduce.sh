#!/usr/bin/env bash
# Reproduces the paper's evaluation end-to-end (the analogue of the
# artifact's bench.sh). Usage:
#
#   scripts/reproduce.sh [RUNS] [MEM_LIMIT_MIB]
#
# RUNS defaults to 1 (the artifact appendix's recommendation for
# evaluation); the paper used 5. MEM_LIMIT_MIB emulates the paper's
# 120 GB cap scaled to these workloads; solvers whose peak heap exceeds
# it are reported as OOM (the SFS-on-lynx row).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-1}"
MEM_LIMIT="${2:-1024}"

echo "== building (release) =="
cargo build --release -p vsfs-bench

echo
echo "== Table II: benchmark characteristics =="
./target/release/table2

echo
echo "== Table III: time and memory (runs=$RUNS, mem limit ${MEM_LIMIT} MiB) =="
./target/release/table3 --runs "$RUNS" --mem-limit-mib "$MEM_LIMIT"

echo
echo "== Checker precision: FP deltas on buggy workload variants =="
./target/release/checkers du,ninja

echo
echo "== Scheduling: FIFO vs topological order, difference propagation =="
./target/release/scheduling

echo
echo "== MDE: chunked-store payload and peak heap (writes results/BENCH_dedup.json) =="
./target/release/dedup_mem

echo
echo "== Incremental: edit re-solve vs from-scratch (writes results/BENCH_incremental.json) =="
./target/release/incremental_bench

echo
echo "== Serving path: latency, shed rate, snapshot restore (writes results/BENCH_server.json) =="
./target/release/server_bench

echo
echo "== Solver matrix: sfs/vsfs/cfgfree time, memory, precision (writes results/BENCH_solvers.json) =="
./target/release/solver_matrix

echo
echo "== Unification tier: cost ratio (writes results/BENCH_unify.json) =="
./target/release/unify_bench

echo
echo "== Micro-benches (phases, versioning scaling, ablations) =="
cargo bench -p vsfs-bench
