#!/usr/bin/env sh
# loc.sh — the code-size figures ROADMAP tracks: non-test Go lines per
# top-level package (cmd/seqlogd, internal/eval, ...) for the module,
# and the same for the seqbench harness under bench/ (a module of its
# own), each with its total. `make loc` runs this; CI prints it in the
# lint job so every PR log shows the delta. It exits 1 when the module
# total is over the ceiling ROADMAP item 8 holds it to.
ceiling=15300
set -eu
cd "$(dirname "$0")/.."

# count <find-root> [extra find predicates]: one line per directory two
# levels deep (one level for files at the root), then the total.
count() {
    find "$@" -name '*.go' -not -name '*_test.go' -print0 |
        xargs -0 wc -l |
        awk -v root="$1" '
            $2 == "total" { next }
            {
                path = $2
                sub("^" root "/?", "", path)
                n = split(path, parts, "/")
                pkg = (n == 1) ? "." : (n == 2 ? parts[1] : parts[1] "/" parts[2])
                lines[pkg] += $1
                total += $1
            }
            END {
                for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
                close("sort -k2")
                printf "%7d  total\n", total
            }'
}

echo "module seqlog (non-test Go lines, bench/ excluded):"
module=$(count . -not -path './bench/*' -not -path './.bench_build/*')
echo "$module"
echo
echo "module seqlog/bench (non-test Go lines):"
count bench

total=$(echo "$module" | awk '$2 == "total" { print $1 }')
if [ "$total" -gt "$ceiling" ]; then
    echo "loc: module total $total is over the ceiling of $ceiling lines" >&2
    exit 1
fi
