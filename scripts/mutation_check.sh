#!/usr/bin/env bash
# Mutation check: every deliberate bug in scripts/mutants/ must be caught.
#
# Each scripts/mutants/<name>.patch breaks one mechanism of the engine on
# purpose (a log reader without checksums, a snapshot restore with stale
# watermarks, a magic-set rewrite without its guard, a log replay that
# applies aborted batches, ...). This script
# copies the working tree once into a temporary directory and, for each
# patch in the table below:
#
#   1. requires `git apply --check` to accept the patch, then applies it;
#   2. requires the patched tree to compile (`cargo test --no-run`), so a
#      stale or broken patch fails the script instead of counting as
#      caught;
#   3. runs the one named test listed for the patch and requires it to
#      fail;
#   4. reverses the patch before the next one.
#
# Before any patch, the unpatched copy must pass every named test, so a
# test that fails for another reason is never counted as a catch. All
# builds share one CARGO_TARGET_DIR (a fresh one under the temporary
# directory, or $MUTATION_TARGET_DIR to reuse a cache across runs).
#
# Usage: scripts/mutation_check.sh [name...]   (default: every patch)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

# name | test target | test that the patch must make fail
checks=(
  "skip_crc|fuzz_recovery|interior_content_flip_is_refused_as_corrupt"
  "skip_tail_truncation|fuzz_recovery|torn_tail_kill_point_recovers"
  "stale_watermarks|fuzz_recovery|pending_assert_in_snapshot_derives_after_recovery"
  "drop_magic_guard|fuzz_demand|demand_scratch_stays_in_the_goal_cone"
  "skip_fallback|fuzz_demand|pinned_gd_with_outside_cone_construction"
  "commit_order|fuzz_differential|sharded_commit_is_bit_for_bit_at_every_thread_count"
  "replay_keeps_aborted|durability|budget_refused_assert_is_compensated_and_replays_as_a_noop"
)

if [ "$#" -gt 0 ]; then
  selected=()
  for name in "$@"; do
    found=
    for row in "${checks[@]}"; do
      if [ "${row%%|*}" = "$name" ]; then
        selected+=("$row")
        found=1
      fi
    done
    [ -n "$found" ] || { echo "mutation_check: unknown mutant '$name'" >&2; exit 2; }
  done
  checks=("${selected[@]}")
fi

for row in "${checks[@]}"; do
  patch="$root/scripts/mutants/${row%%|*}.patch"
  [ -f "$patch" ] || { echo "mutation_check: missing $patch" >&2; exit 1; }
done

work="$(mktemp -d "${TMPDIR:-/tmp}/seqlog-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree"
export CARGO_TARGET_DIR="${MUTATION_TARGET_DIR:-$work/target}"

# Tracked and untracked files of the working tree, without ignored build
# output; files deleted in the working tree are skipped.
git -C "$root" ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    [ -e "$root/$f" ] && printf '%s\0' "$f"
  done |
  tar -C "$root" --null -T - -cf - | tar -C "$tree" -xf -
git -C "$tree" init -q
# The copy keeps the working tree's modification times, which can be older
# than a build of a patched tree that a previous run left in
# $MUTATION_TARGET_DIR; cargo would then take that build as fresh. Touch
# every file any patch edits so it is rebuilt from the copy.
sed -n 's|^+++ b/\([^[:space:]]*\).*|\1|p' "$root"/scripts/mutants/*.patch | sort -u |
  while IFS= read -r f; do
    touch "$tree/$f"
  done

# run_test <target> <test> <log>: run exactly one test of the test target
# of that name in any workspace package; prints "passed", "failed", or
# "missing" (the filter matched no test).
run_test() {
  local status=0
  (cd "$tree" && cargo test -q --workspace --test "$1" -- --exact "$2") >"$3" 2>&1 ||
    status=$?
  if grep -q "test result: .* 1 passed" "$3" && [ "$status" -eq 0 ]; then
    echo passed
  elif grep -q "test result: .* 1 failed" "$3"; then
    echo failed
  else
    echo missing
  fi
}

echo "==> unpatched tree: every named test must pass"
for row in "${checks[@]}"; do
  IFS='|' read -r name target test <<<"$row"
  log="$work/$name.clean.log"
  verdict="$(run_test "$target" "$test" "$log")"
  if [ "$verdict" != passed ]; then
    cat "$log" >&2
    echo "mutation_check: $target::$test $verdict on the unpatched tree" >&2
    exit 1
  fi
  echo "    ok    $target::$test"
done

failures=0
for row in "${checks[@]}"; do
  IFS='|' read -r name target test <<<"$row"
  patch="$root/scripts/mutants/$name.patch"
  log="$work/$name.log"
  echo "==> mutant $name: $target::$test must fail"
  if ! git -C "$tree" apply --check "$patch"; then
    echo "mutation_check: $name.patch does not apply" >&2
    exit 1
  fi
  git -C "$tree" apply "$patch"
  if ! (cd "$tree" && cargo test -q --no-run) >"$log" 2>&1; then
    cat "$log" >&2
    echo "mutation_check: the tree with $name.patch does not compile" >&2
    exit 1
  fi
  verdict="$(run_test "$target" "$test" "$log")"
  git -C "$tree" apply -R "$patch"
  if [ "$verdict" = failed ]; then
    echo "    caught"
  else
    echo "    NOT CAUGHT ($target::$test $verdict under the patch)"
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "mutation_check: $failures mutant(s) not caught" >&2
  exit 1
fi
echo "mutation_check: all ${#checks[@]} mutants caught"
