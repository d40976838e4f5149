#!/usr/bin/env bash
# mutants.sh plants each mutant of testdata/mutants (see TestMutantsApply
# in mutants_test.go) in a copy of the module under .bench_build/mutants,
# runs the packages the mutant names, and prints one line per mutant:
# the tests that caught it, or MISSED. It exits 1 when a mutant is
# missed, when a test the mutant expects to catch it passes, when a
# snippet no longer applies, or when a mutant of internal/eval does not
# expect TestMaintenanceWalk: a hand-written test alone is no coverage
# for the evaluator.
#
#   scripts/mutants.sh            # every mutant
#   scripts/mutants.sh knock-on   # the named ones
set -euo pipefail
cd "$(dirname "$0")/.."

copy=.bench_build/mutants
rm -rf "$copy"
mkdir -p "$copy"
trap 'rm -rf "$copy"' EXIT
tar --exclude=./.git --exclude=./.bench_build --exclude=./bench -cf - . | tar -xf - -C "$copy"

status=0
for f in testdata/mutants/*.txtar; do
	name=$(basename "$f" .txtar)
	if [ $# -gt 0 ] && [[ " $* " != *" $name "* ]]; then
		continue
	fi
	file=$(sed -n 's/^file: //p' "$f")
	run=$(sed -n 's/^run: //p' "$f")
	expect=$(sed -n 's/^expect: //p' "$f")
	if [[ $file == internal/eval/* && " $expect " != *" TestMaintenanceWalk "* ]]; then
		echo "$name: ERROR: a mutant of internal/eval must expect TestMaintenanceWalk"
		status=1
		continue
	fi
	if ! out=$(cd "$copy" && go test -count=1 -run '^TestMutantsApply$' . -mutant "$name" 2>&1); then
		echo "$name: ERROR: the mutant does not apply"
		echo "$out" | sed 's/^/    /'
		status=1
		continue
	fi
	# shellcheck disable=SC2086 # run lists packages
	out=$(cd "$copy" && go test -count=1 $run 2>&1 || true)
	cp "$file" "$copy/$file"
	if grep -q '\[build failed\]\|\[setup failed\]' <<<"$out"; then
		echo "$name: ERROR: the mutant does not build"
		grep -v '^ok\|^---\|^FAIL' <<<"$out" | head -5 | sed 's/^/    /'
		status=1
		continue
	fi
	caught=$(grep -o -- '--- FAIL: [^ /]*' <<<"$out" | cut -d' ' -f3 | sort -u | tr '\n' ' ' || true)
	if [ -z "$caught" ]; then
		echo "$name: MISSED by $run"
		status=1
		continue
	fi
	passed=""
	for want in $expect; do
		if [[ " $caught" != *" $want "* ]]; then
			passed+=" $want"
		fi
	done
	if [ -n "$passed" ]; then
		echo "$name: caught by ${caught% }; expected but passed:$passed"
		status=1
	else
		echo "$name: caught by ${caught% }"
	fi
done
exit $status
