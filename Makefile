# Development targets for the empart library.

GO ?= go

.PHONY: all build crossbuild vet fmt lint test test-short race parity check fault crash bench-smoke microbench table1 examples clean

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

# The workers parity contract, standalone and unabridged: for every facade
# algorithm, backend and machine, outputs, Stats, peak memory and traces at
# workers 1, 2 and 4 must be bit-identical to workers 0, under the race
# detector, including the GOMAXPROCS=1 schedule; plus the workers fault
# cells and ParallelSort's table, transcript and fuzz-seed tests. `make race`
# already runs these; this target is the explicit blocking gate for CI.
parity:
	$(GO) test -race -count=1 -run 'WorkersParity|ShardFault|ParallelSort' . ./internal/inmem

# The fault matrix under the race detector: injected transient/permanent
# faults and bit-flip corruption across {mem, file, file+uring}, retry
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
