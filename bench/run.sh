#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the harness inside the
# checkout (build cache, binaries and temp files all live under
# .bench_build, nothing is written elsewhere) and runs it from the
# repository root. Fails, printing no result, when the repository's
# sources are not there to build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/seqbench" .)
cd "$root"
exec "$build/bin/seqbench" "$@"
