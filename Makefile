GO ?= go

.PHONY: check build vet perfbench-vet fmt-check test race serve-race train-race model-race exact-v3 router-race match-race label-race audit-race fuzz-smoke bench bench-json bench-guard cover

## check: the pre-merge gate — formatting, vet (must be clean for every
## package, internal/serve included), vet and short tests of the
## perfbench module, build, the serving-layer race gate,
## the fault-tolerant-training and batch-executor race gate, the
## model-format race gate, the scorer exactness tests rebuilt for
## GOAMD64=v3, the fleet-routing chaos gate, the crash-safe-matching race
## gate, the online-learning and audit-trail crash gates (each also runs
## the whole shared storage layer, internal/durable, that the journal and
## the audit log sit on), a fuzz smoke pass over CSV ingest, arena
## parsing, blocking, the feedback journal, and the audit log, full
## race-enabled tests, short benchmarks, and the coverage ratchet.
check: fmt-check vet perfbench-vet build serve-race train-race model-race exact-v3 router-race match-race label-race audit-race fuzz-smoke race bench cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## perfbench-vet: vet and short-test the benchmark program. perfbench is
## its own module (replace wym => ../), so `./...` at the root never
## builds it, yet it compiles against internal packages; an API edit
## there would otherwise pass every other gate and break the benchmark.
## -short skips TestSmoke, so no server process is started.
perfbench-vet:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

## fmt-check: fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# cmd/wym alone takes ~2.5 min under the race detector on a 2-core host.
race:
	$(GO) test -race -timeout 30m ./...

## serve-race: the serving stack's lifecycle and fault-injection tests
## under the race detector — concurrent predict vs hot reload, load
## shedding, SIGTERM draining. Fast enough to run on every change.
serve-race:
	$(GO) test -race -timeout 10m ./internal/serve/... ./cmd/wym-server/...

## train-race: the fault-tolerant-training suite under the race detector —
## cancellation at every stage boundary, checkpoint resume (byte-identical
## golden predictions), checkpoint integrity rejection, per-record worker
## panic quarantine, and the CLI's run paths (checkpoint/resume,
## lenient ingest) — plus the engine's batch executor: each index run
## once and in order, no goroutine left behind after a normal, panicking
## or canceled run, mid-run cancellation, and the re-raised panic of
## ProcessAll and PredictAll.
train-race:
	$(GO) test -race -timeout 20m \
		-run 'TestResume|TestTrainCancellation|TestTrainQuarantines|TestCheckpoint|TestRun|TestProcessAll|TestPredictAll|TestPredictBatch' \
		./internal/core ./cmd/wym ./internal/pipeline

## model-race: the zero-copy model-format suite under the race detector —
## concurrent arena mmap hot reload vs batch prediction (use-after-munmap
## would segfault here), NN and FastNN scorer determinism under
## concurrency, the arena/gob prediction-equivalence goldens, the corrupt
## model inputs, and the scorer kernels' exactness tests (NN.Score and
## NN.ScoreBatch equal to the per-unit forward pass bit for bit on both
## tile widths, FastNN.ScoreBatch equal to FastNN.Score, assembly vs
## generic tiles at both widths, the tile choice from CPUID words, the
## lane trainer's weights equal to the per-example reference's).
model-race:
	$(GO) test -race -timeout 15m \
		-run 'TestArenaHotReloadUnderLoad|TestModelRefSwapDuringPredictAll|TestNNConcurrentScore|TestFastNNConcurrentScore|TestArenaPredictionEquivalence|TestLoadFileCorrupt|TestNNScoreMatchesForward|TestNNScoreMatchesForwardBatch|TestFastNNScoreBatchMatchesScore|TestNNGobDecodeRejectsMalformed|TestDenseTile|TestDenseTilePaths|TestFitMatchesReference' \
		./cmd/wym-server ./internal/relevance ./internal/core ./internal/vec ./internal/nn

## exact-v3: the float64 exactness tests rebuilt for GOAMD64=v3, whose
## CPUs have FMA. Were a toolchain ever to fuse multiply-add on amd64, the
## compiled reference forward pass, backward pass or Adam step and the
## kernels (single-record and batched, both tile widths) or the lane
## trainer would diverge here.
exact-v3:
	GOAMD64=v3 $(GO) test -count=1 -timeout 10m \
		-run 'TestNNScoreMatchesForward|TestNNScoreMatchesForwardBatch|TestFastNNScoreBatchMatchesScore|TestDenseTileASMAgainstGeneric|TestFitMatchesReference' \
		./internal/relevance ./internal/vec ./internal/nn

## router-race: the fleet-routing chaos suites under the race detector —
## the ring/breaker/backoff/pool unit tests, the stub-fleet chaos harness
## (replica kill mid-load, slow-replica timeout, panic recovery, rolling
## reload — zero client-visible 5xx throughout), and the real-3-replica
## fleet e2e in cmd/wym-server.
router-race:
	$(GO) test -race -timeout 10m \
		./internal/cluster/... ./cmd/wym-router/...
	$(GO) test -race -timeout 10m -run 'TestFleet' ./cmd/wym-server

## match-race: the crash-safe table-matching suite under the race
## detector — mid-job SIGKILL with byte-identical resume, SIGTERM
## draining the in-flight chunk, corrupt-segment recomputation, and
## manifest fingerprint rejection.
match-race:
	$(GO) test -race -timeout 20m \
		-run 'TestMatchKillResume|TestMatchSigtermDrains|TestInterruptAndResume|TestResumeRecomputes|TestResumeRejects|TestRetryOnceOnQuarantine' \
		./cmd/wym ./internal/matchjob

## label-race: the online-learning suite under the race detector — the
## ApplyFeedback order-invariance goldens, the calibration sweep (sorted
## against the quadratic reference, bit for bit) and its parallel
## re-predict, the active-labeling quality
## gate, the serving feedback endpoints (apply + journal + atomic swap
## vs concurrent predict load), startup journal replay, the SIGKILL
## crash e2e (fingerprint-identical replay after an unclean death), and
## every test of internal/durable, the segment log under the journal.
label-race:
	$(GO) test -race -timeout 30m \
		-run 'TestApplyFeedback|TestSelector|TestFeedback|TestJournal|TestLabel|TestGoldenLabelAuto' \
		./internal/feedback ./internal/core ./cmd/wym-server ./cmd/wym
	$(GO) test -race ./internal/durable

## audit-race: the prediction-audit-trail suite under the race detector —
## the append/rotate/retention property tests, the deterministic-sampler
## properties, exact counter/record accounting through a live audited
## server, the mid-load SIGKILL recovery e2e, the audit CLI goldens, the
## audit-show/live-explain parity gate, and every test of
## internal/durable, the segment log under the audit log.
audit-race:
	$(GO) test -race -timeout 15m \
		-run 'TestAudit|TestGoldenAudit' \
		./internal/audit ./cmd/wym-server ./cmd/wym
	$(GO) test -race ./internal/durable

## fuzz-smoke: a short native-fuzz pass over the untrusted-input
## surfaces — both CSV ingest readers, the arena (.wyma) parser, the
## blocking candidate generator, the feedback journal reader, and the
## audit log reader must never panic on arbitrary bytes.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadCSV$$' -fuzztime=5s ./internal/data
	$(GO) test -fuzz='^FuzzReadCSVLenient$$' -fuzztime=5s ./internal/data
	$(GO) test -fuzz='^FuzzLoadArena$$' -fuzztime=5s ./internal/arena
	$(GO) test -fuzz='^FuzzBlockingCandidates$$' -fuzztime=5s ./internal/blocking
	$(GO) test -fuzz='^FuzzFeedbackJournal$$' -fuzztime=5s ./internal/feedback
	$(GO) test -fuzz='^FuzzAuditLog$$' -fuzztime=5s ./internal/audit

## bench: short benchmark pass over the hot-path packages (sanity, not a
## baseline — use bench-json for comparable numbers). It includes every
## dense-tile path (BenchmarkDenseTile*) and the in-place scoring
## benchmarks (BenchmarkNNScoreBatch, BenchmarkFastNNScoreBatch).
bench:
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=10x \
		./internal/units ./internal/embed ./internal/assignment ./internal/nn \
		./internal/relevance ./internal/vec

## bench-json: regenerate the perf snapshot (see BENCH_baseline.json).
bench-json:
	$(GO) run ./cmd/benchmark -bench-json BENCH_baseline.json

## bench-guard: re-time the hot pipeline paths and fail if any regressed
## more than 25% (ns/op or allocs/op) against the committed baseline.
bench-guard:
	$(GO) run ./cmd/benchmark -bench-guard BENCH_baseline.json

## cover: run the full test suite with coverage and enforce the ratchet —
## total statement coverage must not drop below the committed floor in
## COVERAGE_floor. Raise the floor (never lower it) when new tests push
## coverage up; that is the ratchet.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat COVERAGE_floor); \
	echo "coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage ratchet: total $$total% fell below the committed floor $$floor%"; exit 1; }
