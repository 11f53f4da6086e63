# Tier-1 gate: `make check` is what every PR must keep green (build,
# vet, and the full test suite under the race detector — the engine's
# worker pool makes concurrency a correctness feature, so -race is not
# optional).

GO ?= go

.PHONY: check build test race vet check-json bench bench-analysis bench-calibration bench-cluster payoff figs serve

check: build vet race check-json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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

# Benchmark the analysis phase itself: worklist vs sweep solver on every
# program at both Tags settings. Compile, edit and service timings come
# from perfbench (perfbench/README.md).
bench-analysis:
	$(GO) test ./internal/bench -run '^$$' -bench BenchmarkAnalyze -benchtime 3x

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

# Benchmark the cluster tier: a real 3-process cluster measured for
# cross-instance dedup, per-instance and cluster-wide latency,
# byte-identity through every front, SIGKILL failover, and
# warm-from-disk restart.
bench-cluster:
	$(GO) run ./cmd/objbench -fig cluster -json > BENCH_cluster.json
	$(GO) run ./cmd/objbench -fig cluster
