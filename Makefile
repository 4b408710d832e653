GO ?= go

.PHONY: build vet fmt-check test test-short test-race race tcp flow partition fuzz-wire chaos torture torture-pinned torture-budget torture-partition torture-token fuzz perfbench bench-json bench-smoke bench-micro bench-diff ci clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing the files gofmt would rewrite, perfbench/ included.
fmt-check:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }

# Full test suite, including the chaos tests (fault injection + recovery).
test:
	$(GO) test ./...

# Short mode skips the chaos tests and other long-running suites.
test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Race CI job: vet plus the short suite under the race detector. Short
# mode keeps the sampled torture sweep at 50 cases so the job stays fast.
race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Fault-injection and recovery gate: the chaos and confined-recovery /
# watchdog suites under the race detector, then a 200-case torture sweep
# restricted to crash-plan scenarios (every case schedules at least one
# worker crash; recovery mode and checkpoint cadence still vary). Runs
# nightly in CI alongside the long randomized sweep.
chaos:
	$(GO) test -race ./internal/engine/ -run 'Chaos|Confined|Watchdog|Torn' -v
	$(GO) test -race ./internal/fault/ ./internal/msgstore/ ./internal/checkpoint/
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.faulty -torture.root=0xc4a05 -timeout=20m

# Long randomized model-checking sweep (nightly). Replay one case with:
#   go test ./internal/torture -run TestTorture -torture.seed=0x...
torture:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -v -count=1 \
		-torture.n=2000 -timeout=30m

# Pinned serializability sweep: 200 cases from a fixed root seed, so every
# CI run executes the identical case list. This is the regression gate for
# the staged message paths (thread-local staging, batched remote apply);
# the nightly `torture` target still covers a larger randomized sweep.
torture-pinned:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -timeout=15m

# Wire-transport gate: the TCP backend conformance suite, the
# cross-transport equivalence matrix, the goroutine-level multi-process
# conformance suites (library-level BSP checks in internal/dist, every
# technique across worker processes in internal/engine) and the real
# multi-process runs, all under the race detector.
tcp:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/wire/ ./internal/dist/
	$(GO) test -race -count=1 ./internal/engine/ -run 'TestTransportEquivalenceMatrix|TestMultiProcess' -v
	$(GO) test -race -count=1 ./cmd/graphrun/ -run TestGraphrunMultiProcess -v

# Bounded-memory message-plane gate: the credit-window and spill-tier unit
# suites under the race detector, then the budget equivalence matrix (every
# sync technique × algorithm × {unbounded, tiny, huge} budget, bitwise
# checks) and the tiny-budget-over-TCP cell.
flow:
	$(GO) test -race -count=1 ./internal/cluster/ -run 'Flow|Credit'
	$(GO) test -race -count=1 ./internal/msgstore/ -run 'Spill'
	$(GO) test -race -count=1 ./internal/engine/ -run 'TestBudget' -v

# Locality-aware partitioning gate: the LDG streaming partitioner and
# relabeling unit suites under the race detector, the partitioner
# equivalence matrix (every mode × technique × partitioner cell bitwise
# against the hash baseline), the multi-process rebuild conformance cell,
# and the full-size quality acceptance run (balance bound, >=25%
# boundary-fraction and cross-partition byte reductions vs hash).
partition:
	$(GO) test -race -count=1 ./internal/partition/ ./internal/graph/
	$(GO) test -race -count=1 ./internal/engine/ -run TestPartitionerEquivalenceMatrix -v
	$(GO) test -race -count=1 ./internal/dist/ -run TestDistStreamingPartitioners
	$(GO) test -count=1 ./internal/bench/ -run TestPartitionQuality -v

# Streaming-partitioner torture row (nightly): the pinned sweep rerun with
# every case forced onto LDG placement, so all serializability and
# recovery oracles run against locality-aware maps.
torture-partition:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.streampart -timeout=15m

# Tiny-budget torture row (nightly): the pinned sweep rerun with a forced
# tiny message-plane budget, so credit windows sit at the floor and the BSP
# spill tier cuts runs on nearly every superstep.
torture-budget:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.tinybudget -timeout=15m

# Token-passing torture row (nightly): the pinned sweep rerun with every
# case forced onto Async with single- or dual-layer token passing
# (alternating by seed; mutate cases run coloring), fault plans still
# sampled, so the flush-on-handoff rule and the token-allowed vertex lists
# face every serializability and recovery oracle.
torture-token:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.token -timeout=15m

# 30-second fuzz smoke over the frame decoder: truncated/corrupt/oversized
# frames must error, never panic or over-allocate; plus a shorter pass over
# the Credit grant frame against its golden fixture corpus.
fuzz-wire:
	$(GO) test ./internal/wire/ -fuzz FuzzFrameDecode -fuzztime=30s -run '^$$'
	$(GO) test ./internal/wire/ -fuzz FuzzCreditFrame -fuzztime=15s -run '^$$'

# Short fuzz pass over the graph loader/symmetrize targets.
fuzz:
	$(GO) test ./internal/graph/ -fuzz FuzzEdgeListSymmetrize -fuzztime=60s

# The end-to-end benchmark is its own Go module (perfbench/), outside the
# root `go test ./...`: vet it and run its self-test, so an internal API
# change cannot break the benchmark's build unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Machine-readable perf baseline: the Fig. 1 spectrum with per-technique
# metrics snapshots and superstep phase traces. BENCH_NNNN.json files at
# the repo root are successive perf-trajectory points made this way.
BENCH_JSON ?= bench.json
BENCH_SCALE ?= 0.1
bench-json:
	SERIALGRAPH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchtab -exp fig1 \
		-workers 16 -trace -json $(BENCH_JSON) -label "fig1 scale=$(BENCH_SCALE)"

# CI benchmark smoke: one iteration of the Fig. 1 spectrum benchmark,
# emitting the JSON report for artifact upload.
bench-smoke:
	SERIALGRAPH_SCALE=$(BENCH_SCALE) SERIALGRAPH_BENCH_JSON=$(BENCH_JSON) \
		$(GO) test -run '^$$' -bench BenchmarkFig1Spectrum -benchtime 1x .

# Hot-path microbenchmarks: the message store's put/read paths (per-message
# vs. batched, all three semantics, 1-8 goroutines) and the engine's
# local-delivery benchmark, which exercises thread-local staging end to end.
bench-micro:
	$(GO) test ./internal/msgstore/ -run '^$$' -bench . -benchtime 2000x
	$(GO) test ./internal/engine/ -run '^$$' -bench BenchmarkLocalDelivery -benchtime 5x

# Per-phase deltas between two perf-trajectory files:
#   make bench-diff OLD=BENCH_0003.json NEW=BENCH_0004.json
# Set FAIL_OVER to a percentage to exit non-zero on any wall/phase
# regression beyond it (the CI bench-smoke gate uses this).
FAIL_OVER ?= 0
bench-diff:
	$(GO) run ./cmd/benchdiff -fail-over $(FAIL_OVER) $(OLD) $(NEW)

ci: build vet test-race

clean:
	$(GO) clean ./...
