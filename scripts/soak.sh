#!/usr/bin/env sh
# soak.sh — the long interning soak: an in-process seqlogd with a WAL
# serves SOAK_CYCLES assert/retract cycles, each of a fresh atom and a
# fresh packed value, and after every tenth of them checks that
# HeapInuse after a collection and stats json's symbols stay flat
# (TestSoakFreshValues in cmd/seqlogd). The runtime reclaims what no
# tuple holds, so neither may grow with the number of cycles.
#
# Usage:  scripts/soak.sh                       # SOAK_CYCLES cycles (default 500000)
#         SOAK_CYCLES=1000000 scripts/soak.sh
set -eu

SOAK_CYCLES="${SOAK_CYCLES:-500000}"
export SOAK_CYCLES
echo "soak: $SOAK_CYCLES cycles"
go test -count=1 -v -run '^TestSoakFreshValues$' -timeout 30m ./cmd/seqlogd/
