#!/usr/bin/env bash
# Hermetic CI gate: tier-1 verify, the full workspace test suite, a
# bench smoke pass (one sample per bench), and the --jobs determinism
# matrix. Everything runs offline against in-repo code only.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Bench bins that always write their JSON report write it here, so a CI
# run never rewrites the recorded results/ baselines.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== tracked markdown stays small: no *.md file over 1 MiB =="
big=""
while IFS= read -r -d '' f; do
  if [ -f "$f" ] && [ "$(wc -c < "$f")" -gt 1048576 ]; then
    big="$big $f"
  fi
done < <(git ls-files -z '*.md')
if [ -n "$big" ]; then
  echo "FAIL: tracked markdown over 1 MiB:$big" >&2
  exit 1
fi
echo "ok: every tracked *.md file is at most 1 MiB"

echo
echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo
echo "== workspace tests (includes the --jobs 1/2/8 determinism matrix) =="
cargo test --workspace -q

echo
echo "== bench smoke (1 warmup, 1 sample per bench) =="
VSFS_BENCH_WARMUP=1 VSFS_BENCH_SAMPLES=1 cargo bench -p vsfs-bench

echo
echo "== determinism matrix: CLI output identical at --jobs 1/2/8 =="
cargo build --release -p vsfs-cli
ref=""
for jobs in 1 2 8; do
  out="$(./target/release/vsfs --vfspta --workload ninja --jobs "$jobs" --print-pts --print-callgraph)"
  if [ -z "$ref" ]; then
    ref="$out"
  elif [ "$out" != "$ref" ]; then
    echo "FAIL: --jobs $jobs output differs from --jobs 1" >&2
    exit 1
  fi
done
echo "ok: points-to sets and call graph identical for --jobs 1/2/8"

echo
echo "== fault-injection matrix: degraded exit 2, identical across jobs =="
for kind in panic mem-cap deadline; do
  for seed in 1 2 3; do
    ref=""
    for jobs in 1 4; do
      rc=0
      out="$(./target/release/vsfs --workload ninja --jobs "$jobs" \
             --inject-fault "$kind:$seed" --print-pts)" || rc=$?
      if [ "$rc" -ne 2 ]; then
        echo "FAIL: $kind:$seed --jobs $jobs exited $rc (want 2: degraded)" >&2
        exit 1
      fi
      if [ -z "$ref" ]; then
        ref="$out"
      elif [ "$out" != "$ref" ]; then
        echo "FAIL: $kind:$seed output differs between --jobs 1 and 4" >&2
        exit 1
      fi
    done
  done
done
echo "ok: 3 kinds x 3 seeds degrade soundly and identically at --jobs 1/4"

echo
echo "== checker corpus: flow-sensitive diagnostics match .expected verbatim =="
for f in workloads/checkers/*.vir; do
  expected="${f%.vir}.expected"
  got="$(./target/release/vsfs --check "$f" | grep -v '^check-summary:' || true)"
  want="$(grep -v '^#' "$expected" | grep -v '^$' || true)"
  if [ "$got" != "$want" ]; then
    echo "FAIL: $f diagnostics differ from $expected" >&2
    diff <(printf '%s' "$want") <(printf '%s' "$got") >&2 || true
    exit 1
  fi
done
echo "ok: $(ls workloads/checkers/*.vir | wc -l) corpus programs match their expected findings exactly"

echo
echo "== governed check: degraded run exits 2 with sound Andersen findings =="
rc=0
out="$(./target/release/vsfs --check --inject-fault panic:1 --workload ninja)" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: governed --check exited $rc (want 2: degraded)" >&2
  exit 1
fi
# In degraded mode the flow-sensitive view IS the Andersen fallback, so
# every per-checker fp-removed delta must be exactly zero.
if echo "$out" | grep '^check-summary:' | grep -qv 'fp-removed=0$'; then
  echo "FAIL: degraded --check reported a nonzero fp-removed delta" >&2
  exit 1
fi
echo "ok: degraded --check exits 2 and falls back to the Andersen finding set"

echo
echo "== governed step budget: degraded run still exits 2 with sound fallback =="
rc=0
out="$(./target/release/vsfs --vfspta --workload ninja \
       --step-budget 1000 --print-pts)" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: governed --step-budget exited $rc (want 2: degraded)" >&2
  exit 1
fi
echo "ok: tiny step budget degrades soundly with exit 2"

echo
echo "== incremental equivalence: differential edit-sequence property suite =="
VSFS_PROP_CASES=8 cargo test --release -q --test incremental_equivalence

echo
echo "== incremental gate: median edit speedup >= 5x vs from-scratch, >= 3x vs a vsfs load =="
cargo run --release -p vsfs-bench --bin incremental_bench -- ninja,bake --edits 3 --gate 5 \
  --gate-vsfs-load 3.0 --out "$scratch/BENCH_incremental.json"

echo
echo "== parallel versioning gate: --jobs 2 >= 1.2x --jobs 1 on lynx =="
cargo run --release -p vsfs-bench --bin parallel_scaling -- lynx --runs 3 \
  --gate-versioning-speedup 1.2 --out "$scratch/BENCH_parallel.json"

echo
echo "== protocol fuzz smoke: seeded sessions on both transports, zero deaths =="
# In-proc sessions (seeds 0x5eed0001..3 through Server::serve), then the
# e2e suite replaying seeds 1/2/3 over stdio and 11/12/13 over a Unix
# socket against a spawned vsfs process.
cargo test --release -q -p vsfs-server --test fuzz
cargo test --release -q -p vsfs-cli --test serve

echo
echo "== snapshot round trip: restore is fingerprint-identical to cold =="
cargo test --release -q -p vsfs-server --test snapshot
cargo test --release -q -p vsfs-server --test concurrent

echo
echo "== server gate: snapshot restore >= 5x faster than cold solve =="
cargo run --release -p vsfs-bench --bin server_bench -- ninja,bake --gate 5 \
  --out "$scratch/BENCH_server.json"

echo
echo "== solver matrix gate: sfs = vsfs = cfgfree, peak heap and payload dedup vs results/BENCH_solvers.json =="
# Equivalence is checked on every run; --gate-peak fails on any peak
# more than 10% above the baseline or a bake VSFS payload less than 25%
# below flat.
cargo run --release -p vsfs-bench --bin solver_matrix -- du,ninja,bake \
  --gate-peak results/BENCH_solvers.json

echo
echo "== versioning share gate: versioning <= 0.35x the VSFS main phase on bake =="
cargo run --release -p vsfs-bench --bin solver_matrix -- bake --gate-versioning-share 0.35

echo
echo "== vsfs load gate: vsfs cold load >= 1.5x faster than sfs, peak no higher =="
cargo run --release -p vsfs-bench --bin solver_matrix -- ninja,bake --gate-vsfs-load 1.5

echo
echo "== soundness chain: flow-sensitive <= andersen <= unify <= steensgaard =="
cargo test --release -q --test soundness_chain

echo
echo "== unify gate: >= 50x cheaper than andersen =="
cargo run --release -p vsfs-bench --bin unify_bench -- bake --runs 3 --gate-ratio 50

echo
echo "== lint gate: rustfmt clean, clippy and rustdoc clean at -D warnings =="
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo
echo "CI OK"
