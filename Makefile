GO ?= go

.PHONY: all build test vet lint vet-analyzers race check cover bench bench-short bench-agg bench-strat bench-strat-short gobench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's determinism linter over the injection and
# results packages (see tools/lint): no wall-clock reads, no global
# math/rand source, no unannotated map iteration.
lint:
	$(GO) run ./tools/lint

# vet-analyzers is the CI static-analysis gate: gofmt over every
# tracked Go file (any file it lists fails the gate), go vet with its
# full standard analyzer suite across every package, then the
# determinism linter. All reuse the Go build cache, so a warm run is
# seconds.
vet-analyzers:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./tools/lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cover writes a coverage profile and prints the per-package and total
# coverage summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# check is the full gate: build, vet, the determinism linter, and the
# race-enabled test suite with per-package coverage in the output.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./tools/lint
	$(GO) test -race -cover ./...

# bench measures per-injection cost per layer per benchmark on the fast
# path against the reference engine (every shortcut off), asserting
# bit-identical tallies on every attempt and speedup floors on the
# medians (2x arch, 1.5x soft; 0.98x soft per benchmark), and writes
# BENCH_<date>.json. bench-short is the three-benchmark small-n CI
# variant (separate output file, so it never clobbers a committed
# full-run artifact); it also runs the delta-checkpoint benchmark (cold
# vs warm Prepare, full-restore vs delta-walk, chain memory vs 12 full
# snapshots — tallies asserted bit-identical across all paths). gobench
# keeps the raw Go testing benchmarks.
bench: bench-strat
	$(GO) run ./cmd/vulnstack bench -ckpt -bench all

bench-short: bench-strat-short
	$(GO) run ./cmd/vulnstack bench -short -ckpt -bench all -out BENCH_short.json -force

# bench-strat compares injections-to-target-CI for the stratified
# campaign mode against uniform worst-case sampling on every benchmark
# at the paper's 2.88% margin. The command itself asserts the gates: a
# majority of benchmarks must need >= 3x fewer injections (1.5x in the
# small short variant, where the per-stratum pilot dominates), and every
# stratified estimate must land inside the uniform run's 99% CI.
bench-strat:
	$(GO) run ./cmd/vulnstack bench -strat -out BENCH_strat.json -force

bench-strat-short:
	$(GO) run ./cmd/vulnstack bench -strat -short -out BENCH_strat_short.json -force

# bench-agg measures record re-aggregation throughput (JSONL re-parse
# vs the streaming columnar cursor) on a small synthetic campaign,
# asserting bit-identical tallies and a speedup floor.
bench-agg:
	$(GO) run ./cmd/vulnstack bench -agg -aggrows 150000 -out BENCH_agg.json -force

gobench:
	$(GO) test -bench=. -benchmem -run=^$$ .
