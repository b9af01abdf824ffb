GO ?= go

.PHONY: all build test vet lint vet-analyzers race check cover floors breadth gobench

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

# check is the full gate: build, vet, the determinism linter, the
# race-enabled test suite, then per-package coverage from a run without
# the race detector. Under -race, go test forces -covermode=atomic,
# whose atomic counters in the micro core's cycle loop more than
# doubled the race run; the coverage run also runs the !race timing
# floors and allocation gates.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./tools/lint
	$(GO) test -race ./...
	$(GO) test -cover ./...

# floors runs the CI-scale speed floors (fast path vs reference,
# columnar vs JSONL) and the allocation gates (micro core, micro, arch
# and soft injection, warm Fig. 4 regeneration). Both are built only
# without -race, which changes timings and allocation counts, so
# check's race run skips them.
floors:
	$(GO) test -count=1 -run 'Floor|Alloc' . ./internal/results ./internal/micro ./internal/inject ./internal/arch ./internal/llfi

# breadth runs the full-breadth gates, built only without -race so the
# race run's budget does not grow: micro fast path vs reference (ten
# benchmarks x four configs x five structures), prepared checkpoint
# chains vs a full capture (ten benchmarks x four configs and arch, at
# two densities), and static-resolution soundness on the ten hardened
# builds.
breadth:
	$(GO) test -count=1 -run 'TestMicroEquivalenceFullBreadth|TestChainCaptureFullBreadth|TestStaticSoundnessHardened' .

# gobench runs the root package's Go benchmarks (paper artifacts and
# substrate throughput) and the full-scale floor benchmarks
# (Benchmark*Floor*): fast-path speedups at n=150, stratified and
# static-resolution reductions at the paper's 2.88% margin, and the
# columnar re-aggregation speedup at 10^6 rows. Each fails below its
# floor; the CI-scale floors are ordinary tests.
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/results
