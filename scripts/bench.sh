#!/usr/bin/env sh
# bench.sh — run the perf-tracked benchmarks (graphpaths transitive
# closure, concat workload, unification, value microbenchmarks, and
# the incremental assert/retract serving workloads) with -benchmem and
# archive the parsed results as JSON.
#
# Usage:  scripts/bench.sh [out.json]
#         COUNT=5 scripts/bench.sh          # repetitions (default 5)
#
# The JSON output seeds the BENCH_*.json perf trajectory: CI runs this
# script on every push and uploads the file as an artifact; committed
# BENCH_<date>.json snapshots record the trajectory across PRs.
set -eu

count="${COUNT:-5}"
out="${1:-BENCH_$(date +%Y-%m-%d).json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Write then cat (no tee pipeline): under plain sh a pipe would mask a
# failing go test behind tee's exit status and keep CI green.
go test -run '^$' -bench 'TransitiveClosureGraph|ConcatJoin|SemiNaiveChain' \
    -benchmem -count="$count" ./internal/eval/ > "$raw"
go test -run '^$' -bench '.' -benchmem -count="$count" \
    ./internal/unify/ ./internal/value/ >> "$raw"
# Serving workloads: incremental assert and DRed retract trajectories
# vs from-scratch. The from-scratch baselines are slow per op, so cap
# the per-run time.
go test -run '^$' -bench 'IncrementalAssert|IncrementalRetract' -benchmem \
    -benchtime 1s -count="$count" . >> "$raw"
# Durability: crash-recovery cost, full-log replay vs checkpoint+tail.
go test -run '^$' -bench 'Recovery' -benchmem -benchtime 1s \
    -count="$count" ./internal/wal/ >> "$raw"
cat "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"results\": [\n", date; sep = "" }
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    printf "%s    {\"benchmark\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, $2, $3, $5, $7
    sep = ",\n"
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"

# The perf trajectory is the point of this archive: a rename or a
# filter typo that silently drops a series must fail CI, not produce a
# hollow JSON. Require the core serving and recovery series explicitly,
# plus every series present in the newest committed snapshot — anything
# benchmarked before has to keep being benchmarked, unless it is named
# in `retired` below: a series leaves the archive only by an edit to
# that list, which a reviewer sees.
required='BenchmarkIncrementalAssert/incremental/k=1
BenchmarkIncrementalAssert/fromscratch/k=1
BenchmarkIncrementalRetract/retract/k=1
BenchmarkIncrementalRetractMutual/retract-mutual/k=1
BenchmarkRecovery/replay/n=512
BenchmarkRecovery/checkpoint-tail/n=512'
# Retired in PR 15 with the evaluator paths that produced them (the
# scan join path, base-plan maintenance, unpruned DRed). Their numbers
# stay in BENCH_2026-08-07*.json and docs/performance.md as historical
# baselines.
retired='BenchmarkTransitiveClosureGraph/nodes=60/edges=1000/scan
BenchmarkTransitiveClosureGraph/nodes=200/edges=1000/scan
BenchmarkConcatJoin/strings=64/scan
BenchmarkConcatJoin/strings=256/scan
BenchmarkIncrementalAssert/incremental-novariants/k=1
BenchmarkIncrementalRetract/retract-novariants/k=1
BenchmarkIncrementalRetractMutual/retract-mutual-noprune/k=1'
prev=""
for f in BENCH_*.json; do
    [ -e "$f" ] && [ "$f" != "$out" ] && prev="$f"
done
if [ -n "$prev" ]; then
    required="$required
$(sed -n 's/.*"benchmark": "\([^"]*\)".*/\1/p' "$prev" | grep -vxF "$retired" || true)"
fi
for series in $(printf '%s\n' "$required" | sort -u); do
    if ! grep -qF "\"$series\"" "$out"; then
        echo "bench.sh: series $series missing from $out (previously in ${prev:-the required set})" >&2
        exit 1
    fi
done

# The deterministic gates (allocs/op of the k=1 serving series, B/op of
# the interleaved assert+query cycle) are TestAllocBudgets in the root
# package: plain `go test`, every platform, no snapshot to diff against.

echo "wrote $out"
