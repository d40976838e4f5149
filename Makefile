GO ?= go

.PHONY: build test race vet lint loc all

all: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's own static checks: the engine-invariant
# analyzer (cmd/seqlint: no View.Dead outside the DRed overdeletion
# path, no relation write that bypasses the Ensure barrier, no exported
# package-level bool switch in internal/ or cmd/, no second definition
# of §2.2 in internal/analyze) and a gofmt cleanliness gate. CI runs
# this target.
lint:
	$(GO) run ./cmd/seqlint .
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed:"; echo "$$fmt_out"; exit 1; fi

# loc prints the non-test Go line counts ROADMAP tracks, per top-level
# package, for the module and for bench/, and fails when the module is
# over its ceiling (see scripts/loc.sh).
loc:
	scripts/loc.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
