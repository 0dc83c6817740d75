GO ?= go

.PHONY: build test short vet lint race racesched benchgate check fuzz sanitize servesmoke mwbenchtest examples stdoutdiff

build:
	$(GO) build ./...

# Long tier: the full suite — the differential/metamorphic kernel matrix,
# the observability determinism goldens, and the E4 regression gate included.
test:
	$(GO) test ./...

# Short tier: -short trims the differential matrix to its quick subset and
# skips the benchmark-regression gate. For fast inner-loop iteration.
short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Static kernel-discipline lint, two passes plus the prediction gate:
#   1. The syntactic kernelcheck analyzers over every package — they flag
#      nondeterminism inside kernels (math/rand, time, go statements, map
#      ranges), Data() host-view aliasing in device code, and
#      loop-variable-capturing kernel closures that escape.
#   2. The CFG/dataflow warp analyzers (divergence, coalesce, atomicserial,
#      barrier) over the kernel packages, gated by the committed
#      lint_baseline.txt: known findings are tolerated, any NEW unsuppressed
#      finding fails the build. After an intentional kernel change,
#      regenerate with
#        go run ./cmd/kernelcheck -warp -baseline lint_baseline.txt \
#          -write-baseline ./internal/gpualgo ./internal/vwarp
#   3. TestWarplintPredictions — every kernel's committed static verdict
#      (testdata/warplint_expectations.json) must match what the analyzers
#      say today AND correlate with the simulator's measured counters.
#      Regenerate with -update-warplint after an intentional change.
# Shipped as a standalone driver rather than a `go vet -vettool` plugin
# because the build environment is offline (no golang.org/x/tools); the
# analyzers mirror the go/analysis shape, so a vettool port is mechanical.
# Suppress a deliberate finding with `//kernelcheck:ignore <rule>`.
lint:
	$(GO) run ./cmd/kernelcheck ./...
	$(GO) run ./cmd/kernelcheck -warp -baseline lint_baseline.txt ./internal/gpualgo ./internal/vwarp
	$(GO) test ./internal/gpualgo -run TestWarplintPredictions -count=1

# Dynamic kernel sanitizer sweep: every kernel on a small skewed workload
# under racecheck/memcheck/synccheck; exits non-zero on any error-severity
# hazard.
sanitize:
	$(GO) run ./cmd/maxwarp sanitize -scale 8

# The full gate: vet plus the entire suite — chaos tests and the
# differential suite included — under the race detector.
race:
	$(GO) test -race ./...

# The scheduler's cross-goroutine tests, ten times under the race detector.
# A warp's run-ahead queue and segment log are written by its own coroutine
# and drained by whichever warp holds the token next; only the coroutine
# switches of the token handoff order the two, and one pass may not
# interleave them badly enough to show a race. Parallel includes
# TestParallelGateManySMs: the gate at the default 16 SMs on 2 and 16 host
# slots, where a publish that fails to wake a waiter hangs the run.
# ReadOnly selects the frozen-buffer tests: loads that run ahead, and
# writes that fault in every host mode. Coro and Leak select the tests of
# the process-wide coroutine pool: reuse across devices, and no coroutine
# or goroutine left behind by a failed launch.
racesched:
	$(GO) test -race -count=10 -run 'Parallel|Abort|Handoff|FastPath|Vec|ReadOnly|Coro|Leak' ./internal/simt

# Benchmark-regression gate, three parts:
#   - E4 BFS warp-width sweep cycles must stay within ±10% of the committed
#     baseline (internal/bench/testdata/e4_baseline.json). Regenerate after an
#     intentional performance-model change with
#       go test ./internal/bench -run TestE4CyclesRegression -update-e4-baseline
#   - Token handoffs per algorithm run (BFS, PageRank, CC and SSSP at K=32 on
#     the wiki and road families, BFS K=1 on LiveJournal-like, each at
#     ParallelSMs 1 and 2) must stay under the inline ceilings of
#     internal/bench/handoff_gate_test.go. The count is deterministic per
#     host mode; ceilings may only tighten.
#   - Hot-path allocs/op must stay within 25% (+64) of
#     internal/bench/testdata/alloc_gate.json (allocations are
#     near-deterministic where wall-clock on shared runners is not); the
#     probes cover sequential, ParallelSMs>1, end-to-end BFS and CC, and
#     one device alternating virtual-warp widths.
#     Regenerate after an intentional change with
#       go test ./internal/bench -run TestHotPathAllocGate -update-alloc-gate
benchgate:
	$(GO) test ./internal/bench -run 'TestE4CyclesRegression|TestHotPathAllocGate|TestHandoffGate' -count=1

# End-to-end service smoke: start `maxwarp serve` with injected device
# faults, drive a saturating loadtest with tight deadlines, assert the
# robustness contract (no 5xx, load shed, oracle degradation), and require
# a clean SIGTERM drain. See scripts/serve_smoke.sh and docs/SERVICE.md.
servesmoke:
	bash scripts/serve_smoke.sh

# The benchmark harness is its own module (mwbench/go.mod), so `go test ./...`
# never builds it; vet and test it here so it keeps compiling against the
# simt, gpualgo, resilient and serve APIs it imports.
mwbenchtest:
	cd mwbench && $(GO) vet . && $(GO) test .

# The examples are the public maxwarp package's only non-test callers. Build
# them once and run each: an example exits non-zero (log.Fatal) when a device
# answer differs from its CPU oracle. About 16 s on a 2-vCPU host, most of it
# roadnetwork.
examples:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/" ./examples/... && \
	for e in "$$d"/*; do \
		echo "examples/$$(basename "$$e")"; \
		"$$e" >/dev/null || exit 1; \
	done

check: vet lint race racesched benchgate servesmoke mwbenchtest examples

# Byte-identical stdout check of the maxwarp CLI and the examples against
# another revision (default HEAD, i.e. the working tree's uncommitted
# changes): builds cmd/maxwarp and the examples at BASE and from the working
# tree, runs a fixed command list and every example, and reports each one
# whose stdout or exit status differs. Not part of check, because a change
# may alter stdout on purpose. See scripts/stdout_diff.sh.
BASE ?= HEAD
stdoutdiff:
	bash scripts/stdout_diff.sh $(BASE)

# Short fuzz pass over the untrusted-input parsers and the observability
# exporters' round-trip properties.
fuzz:
	$(GO) test -fuzz FuzzReadDIMACS -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzFromEdges -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzDeltaApply -fuzztime 15s ./internal/graph
	$(GO) test -fuzz FuzzPromTextRoundTrip -fuzztime 15s ./internal/report
	$(GO) test -fuzz FuzzChromeTraceRoundTrip -fuzztime 15s ./internal/traceview
