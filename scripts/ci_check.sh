#!/usr/bin/env bash
# The full pre-merge check: formatting, tier-1 (release build + every test
# suite), the differential fuzz suites — including the retraction oracle
# (assert/retract interleavings vs fresh batch evaluation of the surviving
# base facts), an explicit DRed step (the retraction arms again, whose
# debug builds check the support-counted extended domain against a rebuild
# from the facts after every retraction, plus the domain's own
# insert/release cascade tests) and the crash-injection recovery suite (durable sessions
# killed at fuzzed WAL offsets, recovered, and compared bit-for-bit
# against a fresh replay), the explicit sharded-commit threads matrix
# (every generated case forced through the multi-worker match and the
# task-order sequential commit at threads 1/2/4/8), the
# demand-driven query oracle (query_bound ≡ filter of the batch fixpoint
# across every adornment of arity ≤ 3 on three session arms — unsettled,
# settled, and mid-stream with the last batch pending — with the settled
# arm answering by index probe, never the scratch) and its pinned API cases (the settled probe after a
# retraction and after recovery, and the point-query budget refusal), the
# transducer-algebra property suite (trim/determinize/compose/minimize
# vs the extensional oracle on random machines, with the skip-trim and
# swapped-composition mutants being caught) and the fusion differential
# (fusion on ≡ off bit-for-bit at threads 1/2/4/8), the analysis
# soundness suite (stratified semi-naive ≡ naive extensionally, SL003 and
# SL004 verdicts sound against evaluation), the mutation check
# (scripts/mutation_check.sh: each deliberate bug in scripts/mutants/ —
# a log reader without checksums or tail truncation, a snapshot restore
# with stale watermarks, a magic rewrite without its guard or fallback, a
# commit in reverse task order — must apply, compile and fail its named
# test), the perfbench smoke run (every
# workload at --size tiny; its batch-eval path is Engine::evaluate_with,
# the session-backed front door), the SL001..SL009 lint analyzer over the
# program corpus with machine-level lints, the Fig. 3 / Example 8.1
# strong-safety audit (examples/safety_audit.rs asserts each verdict),
# the durable_session and live_session examples (each asserts recovery,
# the torn-tail cut or the retraction extents and exits non-zero on a
# miss), a zero-warning rustdoc build, and a zero-warning clippy
# pass over every
# target. The fuzz
# generators are seeded from test names (see crates/shims/proptest), so a
# failure here reproduces locally by running the same test — no seed to
# copy around.
# Usage: scripts/ci_check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (includes tests/fuzz_differential.rs with its pinned seeds:"
echo "    batch/incremental properties AND the retraction oracle — retract ≡ fresh"
echo "    batch evaluation of the surviving base facts, 600 generated cases)"
cargo test -q

echo "==> DRed (explicit): the retraction arms of the differential fuzz suite"
echo "    (retract ≡ fresh batch of the survivors, head-bound re-derivation,"
echo "    and in debug builds the support-counted domain ≡ a rebuild from the"
echo "    facts after every retraction), then the domain's insert/release"
echo "    cascade tests (exact support counts, release ≡ fresh closure)"
cargo test -q --test fuzz_differential -- retraction
cargo test -q -p seqlog-sequence domain

echo "==> cargo test -q --test fuzz_recovery (crash-injection recovery suite:"
echo "    durable sessions killed at fuzzed WAL byte offsets and record"
echo "    boundaries, recovered across threads 1/2/4/8, and compared"
echo "    bit-for-bit against a fresh replay of the surviving log; plus"
echo "    bit-flip corruption sweeps and the pinned torn-tail, interior-flip"
echo "    and pending-assert cases the mutation check relies on)"
cargo test -q --test fuzz_recovery

echo "==> sharded-commit threads matrix (explicit): every generated case"
echo "    forced through the multi-worker match at threads 1/2/4/8, its"
echo "    buffers committed sequentially in task order, and compared"
echo "    bit-for-bit against the single-worker reference — assert-only"
echo "    batches, retraction interleavings, and crash-recovery replays"
cargo test -q --test fuzz_differential -- sharded_commit
cargo test -q --test fuzz_recovery sharded_commit

echo "==> cargo test -q --test fuzz_demand (demand-driven query oracle:"
echo "    query_bound ≡ sorted filter of the batch fixpoint for every"
echo "    populated predicate and every bound/free adornment of arity ≤ 3,"
echo "    on three session arms — unsettled, settled (an index probe of the"
echo "    session's relation, evaluated == false), and mid-stream (settled"
echo "    batches plus a pending one) — bit-for-bit across threads 1/2/4/8"
echo "    on every arm; plus the pinned selectivity and fallback cases the"
echo "    mutation check relies on)"
cargo test -q --test fuzz_demand

echo "==> cargo test -q -p seqlog-core --test demand (point-query pins: the"
echo "    settled probe after run, effective retraction and open_durable"
echo "    recovery, and under a one-round budget; an unsettled query over"
echo "    max_facts refused with EvalError::Budget, the session unpoisoned"
echo "    and its stats unchanged)"
cargo test -q -p seqlog-core --test demand

echo "==> cargo test -q -p seqlog-transducer --test algebra (transducer-algebra"
echo "    property suite: trim/determinize/compose/minimize preserve the"
echo "    machine's relation against the brute-force extensional oracle on"
echo "    random machines; equivalence agrees with extensional comparison;"
echo "    plus the harness's own mutants — skip-trim, swapped composition"
echo "    order — being caught)"
cargo test -q -p seqlog-transducer --test algebra

echo "==> cargo test -q --test fuzz_fusion (fusion differential: every"
echo "    generated case extended with transducer-chain clauses, plus the"
echo "    paper's transducer programs, evaluated with the compile-time"
echo "    fusion pass on and off — extents bit-for-bit identical at threads"
echo "    1/2/4/8, and the fused route provably doing less transducer work)"
cargo test -q --test fuzz_fusion

echo "==> cargo test -q --test fuzz_analysis (analysis soundness: semi-naive"
echo "    over the SCC-stratified schedule ≡ naive evaluation extensionally,"
echo "    SL003-flagged clauses never contribute, SL004 bodies never match —"
echo "    200 generated cases per property)"
cargo test -q --test fuzz_analysis

echo "==> mutation check (scripts/mutation_check.sh): every patch in"
echo "    scripts/mutants/ applies to a copy of the tree, compiles, and makes"
echo "    its named test fail; the unpatched copy passes all of them"
scripts/mutation_check.sh

echo "==> perfbench smoke (cargo test --release --manifest-path"
echo "    perfbench/Cargo.toml): every workload at --size tiny, traced and"
echo "    untraced, answers checked against the benchmark's own oracles —"
echo "    its batch evaluations go through Engine::evaluate_with, the"
echo "    session-backed front door"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> lint analyzer over the program corpus (examples/programs/*.sdl):"
echo "    SL001..SL009 diagnostics must match each file's % expect: directive"
echo "    exactly — clean programs fail on any new warning, lint fixtures"
echo "    fail if their diagnostic stops reproducing (--machines prints the"
echo "    registered machines' algebra report: size, functionality, minimized"
echo "    size)"
cargo run --release -q --example analyze -- --check --machines examples/programs/*.sdl

echo "==> safety audit (examples/safety_audit.rs): the Fig. 3 / Example 8.1"
echo "    strong-safety verdicts of Engine::analyze, asserted program by program"
cargo run --release -q --example safety_audit

echo "==> durable and live session examples: each asserts its own outcome —"
echo "    crash recovery to the same model, the torn-tail cut back to the last"
echo "    whole record, and the extents after retraction"
cargo run --release -q --example durable_session
cargo run --release -q --example live_session

echo "==> cargo doc --workspace --no-deps (zero rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "ci_check: all green"
