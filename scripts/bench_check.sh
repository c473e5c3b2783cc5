#!/usr/bin/env bash
# Short benchmark smoke run: measures the headline benchmarks with a 1s
# budget per benchmark and aggregates per-benchmark medians into
# BENCH_<N>.json at the repo root, so successive PRs can track the perf
# trajectory. Includes the parallel_scaling bench (the same workloads swept
# over EvalConfig::threads ∈ {1,2,4,8}, including the delta1M case: a
# settled session resumed with a ~1.1M-fact semi-naive delta, matched on
# several workers and committed sequentially), the incremental_update bench
# (small session delta on a ≥5k-fact settled base vs batch re-evaluation),
# and the retract_update bench (one-fact retraction on a ≥8k-fact settled
# base, maintained by Delete-and-Rederive, vs batch re-evaluation of the
# surviving database), and the durability bench (wal_overhead: the same
# assert burst unlogged vs WAL-logged vs fsync-per-record; recovery_time:
# open_durable replaying a 513-record log tail vs loading a checkpointed
# snapshot), and the stratified_eval bench (SCC-stratified semi-naive
# evaluation of a 24-stratum constructive chain plus a ground
# domain-sensitive clause, pinned against naive evaluation — the workload
# where scanning every clause every round would re-enumerate the domain
# once per round), and the point_query bench
# (demand-driven bound-argument query via the magic-set transformation —
# one chain's cone out of a ~100k-edge recursive closure — vs full
# fixpoint evaluation plus filtering, with a ≥10x separation asserted
# before timing), and the transducer_pipeline bench (a 3-machine head
# chain fused at compile time into one minimized machine vs staged
# per-derivation execution, with a ≥2x separation asserted before
# timing).
# Usage: scripts/bench_check.sh [N]  (default N=9).
set -euo pipefail

cd "$(dirname "$0")/.."
N="${1:-9}"
OUT="BENCH_${N}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# The criterion shim appends one JSON object per benchmark to $BENCH_JSON.
BENCH_JSON="$RAW" cargo bench -q -p seqlog-bench \
    --bench ex15_recursion --bench thm3_ptime --bench fig2_square \
    --bench parallel_scaling --bench incremental_update \
    --bench retract_update --bench durability \
    --bench stratified_eval --bench point_query \
    --bench transducer_pipeline \
    -- --measurement-time 1

{
    echo '{'
    echo '  "schema": 1,'
    echo "  \"run\": ${N},"
    echo '  "measurement_time_secs": 1,'
    echo '  "results": ['
    sed 's/^/    /; $!s/$/,/' "$RAW"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT ($(grep -c '"id"' "$OUT") benchmarks)"
