# Development targets for the empart library.

GO ?= go

.PHONY: all build crossbuild vet fmt lint test test-short race parity check fault crash bench-smoke bench bench-compare bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr10 microbench table1 examples clean

all: build lint test

# The default verification path: compile (native and cross), lint, full
# tests, and the benchmark's smoke test.
check: build crossbuild lint test bench-smoke

build:
	$(GO) build ./...

# Cross-compile smoke: the io_uring and O_DIRECT backends are gated by build
# tags (io_uring to linux/{amd64,arm64,riscv64}), and their stubs promise the
# rest of the tree compiles unchanged everywhere else. darwin exercises the
# !linux branch, linux/386 the unsupported-arch branch of the linux tags.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis: gofmt and go vet always; staticcheck when installed (the
# repo takes no module dependencies, so the binary is opportunistic, not
# vendored).
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The short suite under the race detector. The EM model is sequential, so
# this guards the harness plumbing (tracer, disk registry, CLI paths).
race:
	$(GO) test -race -short ./...

# The parallel-engine parity contract, standalone and unabridged: for every
# backend and workers in {1, 2, P}, outputs, Stats, and traces must be
# bit-identical, under the race detector, including the GOMAXPROCS=1
# schedule and the shard fault path. `make race` already runs these; this
# target is the explicit blocking gate for CI.
parity:
	$(GO) test -race -count=1 -run 'WorkersParity|WorkersShard|WorkersOutput|ShardFault|EngineMatchesSequential' . ./internal/empar

# The fault matrix under the race detector: injected transient/permanent
# faults and bit-flip corruption across {mem, file, file+pipeline}, retry
# on/off, plus the per-algorithm fault sweep and its goroutine-leak checks,
# and the I/O engine's deferred-error and one-transfer-per-block injector
# tests.
fault:
	$(GO) test -race -count=1 -run 'Fault|Resilien|Corrupt|Retry|Checksum|Backoff|Sticky|Injector|StagedWrite|AsyncWriteError' . ./internal ./internal/emio

# The crash-recovery harness and the robustness layer around it: the real
# SIGKILL crash/resume matrix over the emsort binary, the checkpoint layer's
# scripted-crash resume tests, the cancellation-timing matrix (every
# algorithm x every backend, with goroutine-leak checks), and the job-layer
# validation — cancellation rows under the race detector.
crash:
	$(GO) test -count=1 -run 'CrashRecovery|SortCheckpointed|SortJob' . ./internal/extsort
	$(GO) test -race -count=1 -run 'Cancellation|BindContext|ENOSPC' .

# The benchmark's smoke test: every workload at -quick sizes. bench/ is a Go
# module of its own, so the root's `go test ./...` does not reach it.
bench-smoke:
	cd bench && $(GO) test ./...

# Regenerate the checked-in wall-clock A/B document for the async I/O
# pipeline (sort/partition/splitters, pipeline off vs on, buffered and
# O_DIRECT backing). Progress goes to stderr, the JSON to BENCH_pr3.json.
bench:
	$(GO) run ./cmd/embench -suite pr3 > BENCH_pr3.json

# Regression gate: rerun the pr3 suite and diff it against the checked-in
# baseline. Fails on any logical-I/O increase or >20% wall-clock growth;
# rows the current host cannot measure (e.g. no O_DIRECT) are skipped.
bench-compare:
	$(GO) run ./cmd/embench -compare BENCH_pr3.json

# Regenerate the checksum-overhead A/B document (sort/partition/splitters,
# CRC32C off vs on, pipeline off and on). JSON goes to BENCH_pr5.json.
bench-pr5:
	$(GO) run ./cmd/embench -suite pr5 > BENCH_pr5.json

# Regenerate the telemetry-overhead A/B document (sort/partition/splitters,
# tracer+metrics+event log off vs on, pipeline off and on). The contract:
# logical I/O identical, wall-clock overhead within a few percent. JSON goes
# to BENCH_pr6.json.
bench-pr6:
	$(GO) run ./cmd/embench -suite pr6 > BENCH_pr6.json

# Regenerate the parallel-engine speedup document: extsort/distsort, buffered
# and O_DIRECT, workers in {1, 2, 4, NumCPU}, with per-row output digests and
# logical-I/O parity checks against the sequential engine. JSON goes to
# BENCH_pr7.json.
bench-pr7:
	$(GO) run ./cmd/embench -suite pr7 > BENCH_pr7.json

# Regenerate the io_uring backend A/B document: sort/partition/splitters over
# the same deepened async pipeline, positioned syscalls vs batched io_uring
# submission, with logical-I/O parity and output digests per row plus SQE
# batch-size and queue-depth histograms. On hosts without io_uring the suite
# emits the host record and no rows. JSON goes to BENCH_pr8.json.
bench-pr8:
	$(GO) run ./cmd/embench -suite pr8 > BENCH_pr8.json

# Regenerate the checkpoint-journal overhead A/B document: file-backed sorts
# with the journal off, on (default process-crash grade, no fsyncs), and on
# with -full-sync (power-loss grade, fsync per phase barrier). The contract:
# logical I/O identical everywhere, default-grade wall overhead within a few
# percent. JSON goes to BENCH_pr10.json.
bench-pr10:
	$(GO) run ./cmd/embench -suite pr10 > BENCH_pr10.json

microbench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Regenerate the paper's Table 1 (markdown on stdout).
table1:
	$(GO) run ./cmd/embench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/histogram
	$(GO) run ./examples/percentiles

clean:
	$(GO) clean ./...
