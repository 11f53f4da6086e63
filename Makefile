# Tier-1 gate: `make check` is what every PR must keep green (build,
# vet, gofmt, and the full test suite under the race detector — the
# engine's worker pool makes concurrency a correctness feature, so -race
# is not optional).

GO ?= go

.PHONY: check build test race vet fmt loc cover-core check-json bench bench-vm bench-compile bench-analysis bench-calibration payoff figs serve

check: build vet fmt race check-json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, naming the files, when gofmt would change any tracked Go file.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Non-test Go lines over tracked files (ROADMAP's line budget).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l

# Per-function statement coverage of internal/core and internal/analysis
# against testdata/cover_core.golden: fails when a function's coverage
# falls or a function missing from the golden is below 100%.
cover-core:
	bash scripts/cover_core.sh

# Golden JSON schema check: the serialized shapes of Explain decisions,
# CompileStats, and the structured rejection reasons are public contract
# (evidence steps, reason codes, field ordering). Wall times are the one
# nondeterministic field and the tests normalize them.
check-json:
	$(GO) test . -run 'JSON|Golden' -count=1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Benchmark the VM and cache simulator: run every suite program's baseline
# and inline build (compiled outside the timer) with the default cache,
# reporting ns/op, allocations and modeled cycles five times each, so two
# revisions can be compared side by side.
bench-vm:
	$(GO) test -run '^$$' -bench BenchmarkSuite -benchmem -count 5 .

# Benchmark compilation of richards in direct, baseline and inline mode
# (parse through transform), reporting ns/op, bytes and allocations per
# compile five times each, for a quick compiler A/B without perfbench.
bench-compile:
	$(GO) test -run '^$$' -bench BenchmarkCompile -benchmem -count 5 .

# Benchmark the analysis phase itself: worklist vs sweep solver on every
# program at both Tags settings. Compile, edit and service timings come
# from perfbench (perfbench/README.md).
bench-analysis:
	$(GO) test ./internal/bench -run '^$$' -bench BenchmarkAnalyze -benchtime 3x -benchmem

# Cost-model cross-validation: the VM's predicted inlining speedups and
# allocation deltas vs the native tier's measured wall-time and
# allocator deltas (EXPERIMENTS.md has the methodology and caveats).
# Saved as BENCH_calibration.json plus the human-readable table.
bench-calibration:
	$(GO) run ./cmd/objbench -fig calibration -json > BENCH_calibration.json
	$(GO) run ./cmd/objbench -fig calibration

# Per-field payoff attribution: profiled inlining-on vs inlining-off runs
# joined against the optimizer's decision (docs/OBSERVABILITY.md), saved
# as BENCH_payoff.json plus the human-readable table.
payoff:
	$(GO) run ./cmd/objbench -fig payoff -json > BENCH_payoff.json
	$(GO) run ./cmd/objbench -fig payoff

# Regenerate the full evaluation (figure-sized workloads).
figs:
	$(GO) run ./cmd/objbench -fig all -scale default -stats

# Run the oicd compile-and-explain service locally (docs/SERVER.md).
serve:
	$(GO) run ./cmd/oicd
