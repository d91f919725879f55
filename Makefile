# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets. The repo is stdlib-only — no dependencies to fetch; even the
# twelve determinism/concurrency/wire contract analyzers (`make lint`,
# cmd/pruner-vet) are built on go/ast + go/types alone, including the
# whole-module call-graph generation (ctxflow, lockheld, hotalloc,
# errdrop), the def-use dataflow generation (clocktaint, lockorder,
# wireshape) and its measured zero-allocation hot-path gate (the
# TestAlloc* AllocsPerRun tests over the nn.Scratch inference executor,
# run by bench-smoke).

GO ?= go

.PHONY: all build vet lint lint-cover wire-check wire-lock cross-arm64 test race serve serve-e2e measure-e2e profile bench bench-smoke bench-parallel fuzz-smoke clean

all: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism, concurrency & wire contract: pruner-vet runs all
# twelve internal/lint analyzers — the per-package generation (exhaust,
# globalrand, maprange, rawgo, walltime), the call-graph generation
# (ctxflow, errdrop, hotalloc, lockheld) and the def-use dataflow
# generation (clocktaint, lockorder, wireshape) — over the whole module
# and fails on any diagnostic, malformed directive, or unused
# //pruner:allow suppression. See DESIGN.md §10, §12 and §13;
# `pruner-vet -json` emits the same diagnostics (suppressed included)
# machine-readably.
lint:
	$(GO) build ./cmd/pruner-vet ./internal/lint
	$(GO) run ./cmd/pruner-vet ./...

# The wire contract alone: fails on any schema drift between the live
# encoder-reachable types and the checked-in wire.lock. Breaking drift
# (removed/renamed fields, wire-name or type changes) must be landed
# deliberately via `make wire-lock`; additive drift is a notice until
# the lock is regenerated. See API.md "Wire compatibility".
wire-check:
	$(GO) run ./cmd/pruner-vet -checks wireshape ./...

# Regenerate wire.lock from the live wire schema after a reviewed
# schema change.
wire-lock:
	$(GO) run ./cmd/pruner-vet -write-wire ./...

# Coverage gate for the analyzers themselves: internal/lint must keep
# total statement coverage at or above the floor, so new analyzers land
# with fixtures instead of silently untested paths.
LINT_COVER_FLOOR := 80
lint-cover:
	$(GO) test -coverprofile=lint.cover ./internal/lint
	@$(GO) tool cover -func=lint.cover | awk -v floor=$(LINT_COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "internal/lint coverage %.1f%% is below the %d%% floor\n", $$3, floor; exit 1 } \
		else printf "internal/lint coverage %.1f%% (floor %d%%)\n", $$3, floor }'

# The arm64 cross-build: vet and build the module for arm64, then check
# that the generic axpy loops (internal/nn/axpy.go) compile to no FMADDD.
# The Go spec lets arm64 fuse a multiply into an add, which skips the
# product's rounding; those loops must keep the bits of the amd64 AVX
# kernels (DESIGN.md §12). An empty assembly listing fails too, so the
# grep cannot pass vacuously.
cross-arm64:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/nn 2>&1 | grep 'internal/nn/axpy.go:'); \
	if [ -z "$$asm" ]; then echo "no arm64 assembly listing for internal/nn/axpy.go"; exit 1; fi; \
	if echo "$$asm" | grep -qw FMADDD; then echo "FMADDD in the generic axpy loops:"; echo "$$asm" | grep -w FMADDD; exit 1; fi; \
	echo "internal/nn/axpy.go: no FMADDD on arm64"

test:
	$(GO) test ./...

# Every internal package under the race detector (slow but the strongest
# check that scoring/measurement fan-out stays data-race-free). The list
# is the ./internal/... pattern itself, so a newly added package cannot
# be forgotten the way a hardcoded list could.
race:
	$(GO) test -race ./internal/...

# Run the tuning daemon locally (see API.md for the endpoints).
serve:
	$(GO) run ./cmd/pruner-serve -addr :8149 -store pruner-store

# The daemon's end-to-end suite (submit -> SSE -> cache hit) under -race.
serve-e2e:
	$(GO) test -race -v ./internal/server/... ./internal/store/...

# The measurement-fleet end-to-end suite under -race: pruner-serve with a
# loopback pruner-measure worker (register -> submit -> fleet-measured
# result byte-identical to the simulator), plus the wire-fidelity and
# pipeline determinism contracts, plus the mid-session /metrics scrape of
# daemon AND worker (TestMetrics*: exposition validated with the strict
# stdlib parser, failing on empty or malformed output).
measure-e2e:
	$(GO) test -race -v -run 'TestFleet|TestMeasurer|TestWorkerFleetMatchesSimulator|TestTunePipeline|TestMetrics|TestObservability' \
		./internal/server/... ./internal/measure/... ./internal/tuner/...
	$(GO) test -race ./internal/obs/...

# Profile a representative tuning session: CPU profile + span trace from
# one pruner-tune run, ready for `go tool pprof cpu.prof`.
profile:
	$(GO) test -run '^TestTunePipelineDepth1MatchesPreRefactorGolden$$' -cpuprofile cpu.prof ./internal/tuner/
	$(GO) run ./cmd/pruner-tune -net resnet50 -trials 40 -max-tasks 2 -trace-out trace.json
	@echo "wrote cpu.prof (go tool pprof cpu.prof) and trace.json"

# Regenerate the scaled evaluation (every paper table/figure).
bench:
	$(GO) test -bench=. -benchtime=1x -timeout=120m .

# CI's benchmark smoke: every internal benchmark once (incl. the
# draft-stage BenchmarkRunLSE, the verify-stage BenchmarkPredictBatched, the training-engine BenchmarkFit,
# the nn BenchmarkAxpy AVX-vs-generic kernel comparison,
# the BenchmarkTunePipeline depth sweep and the fixed-vs-adaptive
# BenchmarkTuneAdaptive measured-candidate comparison) plus a bounded
# root subset.
# The first line is the zero-allocation gate (DESIGN.md §12): the
# TestAlloc* tests pin every warmed nn.Scratch executor method to 0 heap
# allocations per run via testing.AllocsPerRun — the dynamic cross-check
# of the static hotalloc analyzer.
bench-smoke:
	$(GO) test -run='^TestAlloc' -count=1 ./internal/nn
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/...
	$(GO) test -run='^$$' -bench='BenchmarkTuneParallel|BenchmarkAblation_SAvsOracle' -benchtime=1x -timeout=20m .

# Just the worker-count sweep for BENCH_*.json snapshots.
bench-parallel:
	$(GO) test -bench=BenchmarkTuneParallel -benchtime=1x .

# Short fuzz pass over the record codec (the store's segment format and
# the fleet's wire format), the measurement worker's /measure request
# parsing, the store's torn-tail segment replay, the daemon's job-spec
# decoder, and the hand-editable wire.lock parser. The seed corpora also
# run as plain tests under `make test`.
fuzz-smoke:
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime 10s
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzWorkerMeasureRequest$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSegmentIndexTornTail$$' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzJobSpecDecode$$' -fuzztime 10s
	$(GO) test ./internal/lint -run '^$$' -fuzz '^FuzzWireLockParse$$' -fuzztime 10s

clean:
	$(GO) clean
	rm -rf .cache
	rm -f lint.cover
