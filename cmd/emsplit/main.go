// Command emsplit runs one algorithm of the library on a generated input,
// verifies the output against the problem definition, and reports the block
// I/Os it cost next to the paper's bound formula.
//
// Usage:
//
//	emsplit -algo splitters  -n 262144 -k 64 -a 16 -bmax 262144
//	emsplit -algo partition  -n 262144 -k 64 -a 0  -bmax 4096
//	emsplit -algo multiselect -n 262144 -k 64
//	emsplit -algo multipartition -n 262144 -k 64
//	emsplit -algo precise -n 262144 -bmax 4096
//	emsplit -algo sort -n 262144
//	emsplit -algo histogram -n 262144 -k 16 -lo 0.5 -hi 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	empart "repro"
	"repro/internal/emio/metrics"
	"repro/internal/verify"
	"repro/internal/workload"
)

var (
	flagAlgo    = flag.String("algo", "splitters", "splitters | partition | multiselect | multipartition | precise | sort | histogram")
	flagN       = flag.Int("n", 1<<18, "input size N")
	flagM       = flag.Int("m", 1<<12, "memory size M")
	flagB       = flag.Int("b", 1<<5, "block size B")
	flagWorkers = flag.Int("workers", 0, "worker goroutines for the parallel sharded engine (0 = sequential engine; the parallel engine's output matches it bit for bit, and engine I/O counts are identical for every worker count)")
	flagK       = flag.Int64("k", 64, "partition/splitter/rank count K")
	flagA       = flag.Int64("a", 0, "lower size bound a")
	flagBMax    = flag.Int64("bmax", 0, "upper size bound b (0 means N)")
	flagBacking = flag.String("backing", "", "path for a real backing file for the simulated disk (default: in-memory)")
	flagUring   = flag.Bool("uring", false, "submit physical I/O through an io_uring with the async pipeline (needs -backing; degrades silently to positioned syscalls where unsupported)")
	flagDist    = flag.String("dist", "uniform", "input distribution")
	flagSeed    = flag.Uint64("seed", 1, "workload seed")
	flagLo      = flag.Float64("lo", 0, "histogram: relative slack below N/K")
	flagHi      = flag.Float64("hi", 0, "histogram: relative slack above N/K")
	flagTrace   = flag.Bool("trace", false, "append a phase trace (span tree with I/O and memory attribution) to the report")
	flagMetrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this host:port while the job runs")
	flagProg    = flag.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	flagSum     = flag.Bool("checksum", false, "CRC32C-checksum every stored block and fail on corruption at read time")
	flagRetry   = flag.Int("retry", 0, "retry transient backing-I/O faults up to this many attempts (0 or 1 = off)")
	flagLog     = flag.String("log", "", "append structured JSON-lines event log to this file")
	flagOTLP    = flag.String("otlp", "", "write OTLP/JSON trace+metrics export to PREFIX.trace.json / PREFIX.metrics.json (implies tracing and metrics)")
	flagTop     = flag.Bool("top", false, "render a live terminal dashboard to stderr while the job runs")
	flagBudget  = flag.Int64("disk-budget", 0, "cap the simulated disk footprint at this many bytes (0 = unbounded); jobs fail with a typed resource error when exceeded")
)

// liveSys publishes the running System to the signal trap.
var liveSys atomic.Pointer[empart.System]

// trapSignals cancels the live System on SIGINT/SIGTERM: the running
// algorithm unwinds with a typed cancellation error at its next block
// transfer, partial stats are reported, and the process exits nonzero. A
// second signal exits immediately.
func trapSignals() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if sys := liveSys.Load(); sys != nil {
			sys.Cancel(fmt.Errorf("received %v", sig))
			<-ch
		}
		os.Exit(130)
	}()
}

// options carries one emsplit invocation.
type options struct {
	algo     string
	n        int
	m, b     int
	workers  int
	backing  string
	uring    bool
	k, a     int64
	bmax     int64
	dist     string
	seed     uint64
	lo, hi   float64
	trace    bool
	checksum bool
	retry    int
	logPath  string
	otlp     string
	top      bool
	budget   int64

	metricsAddr string
	progress    time.Duration
	progressOut io.Writer // progress/telemetry stream (main: stderr)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("emsplit: ")
	flag.Parse()
	// The parallel engine's workers spend most of their time blocked in
	// syscalls; on hosts with fewer cores than workers, give the runtime a P
	// per blocked worker plus compute headroom so the device queue stays full.
	if want := 2 * *flagWorkers; want > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(want)
	}
	trapSignals()
	report, err := execute(options{
		algo: *flagAlgo, n: *flagN, m: *flagM, b: *flagB, workers: *flagWorkers,
		backing: *flagBacking, uring: *flagUring,
		k: *flagK, a: *flagA, bmax: *flagBMax,
		dist: *flagDist, seed: *flagSeed, lo: *flagLo, hi: *flagHi,
		trace: *flagTrace, checksum: *flagSum, retry: *flagRetry,
		logPath: *flagLog, otlp: *flagOTLP, top: *flagTop,
		budget:      *flagBudget,
		metricsAddr: *flagMetrics, progress: *flagProg, progressOut: os.Stderr,
	})
	if err != nil {
		log.Fatal(renderErr(err))
	}
	fmt.Print(report)
}

// renderErr prefixes the resilience layer's typed failures so a log line (and
// the nonzero exit it precedes) tells data corruption apart from device
// trouble without parsing the wrapped chain.
func renderErr(err error) string {
	var ce *empart.CorruptionError
	if errors.As(err, &ce) {
		return fmt.Sprintf("data corruption detected: %v", err)
	}
	var te *empart.TransientError
	if errors.As(err, &te) {
		return fmt.Sprintf("giving up after %d attempt(s): %v", te.Attempts, err)
	}
	var cle *empart.CancelledError
	if errors.As(err, &cle) {
		return fmt.Sprintf("cancelled: %v", err)
	}
	var re *empart.ResourceError
	if errors.As(err, &re) {
		return fmt.Sprintf("out of disk: %v", err)
	}
	return err.Error()
}

// execute runs one algorithm with verification and returns the report text.
func execute(o options) (report string, err error) {
	var sb strings.Builder
	cfg := empart.Config{
		M: o.m, B: o.b,
		Workers:    o.workers,
		Checksum:   o.checksum,
		Retry:      empart.Retry{MaxAttempts: o.retry},
		Log:        empart.LogConfig{Level: slog.LevelDebug, Path: o.logPath},
		DiskBudget: o.budget,
	}
	if o.uring {
		cfg.Pipeline.Enabled = true
		cfg.Pipeline.Uring = true
	}
	var sys *empart.System
	if o.backing != "" {
		sys, err = empart.NewFileBacked(cfg, o.backing)
	} else {
		sys, err = empart.New(cfg)
	}
	if err != nil {
		return "", err
	}
	// Close flushes the buffered event-log file sink; without it a -log run
	// of the in-memory backend would leave an empty JSONL file.
	defer sys.Close()
	liveSys.Store(sys)
	defer liveSys.Store(nil)
	// A cancelled job still reports the block I/Os it had paid, so an
	// interrupted long run leaves a useful trail on the telemetry stream.
	defer func() {
		if err != nil && errors.Is(err, empart.ErrCancelled) && o.progressOut != nil {
			fmt.Fprintf(o.progressOut, "emsplit: cancelled; partial cost %v\n", sys.Stats())
		}
	}()
	// The host line records which physical backends this machine could
	// exercise and which one the run actually uses, so a saved report is
	// self-describing (the bench JSONs carry the same host fields).
	probeDir := os.TempDir()
	if o.backing != "" {
		probeDir = filepath.Dir(o.backing)
	}
	backend := "memory"
	switch {
	case o.backing != "" && sys.UringActive():
		backend = "file+uring"
	case o.backing != "":
		backend = "file"
	}
	fmt.Fprintf(&sb, "host: directIO=%v uring=%v  backend=%s\n",
		empart.DirectIOSupported(probeDir), empart.UringSupported(), backend)
	kind, err := workload.KindByName(o.dist)
	if err != nil {
		return "", err
	}
	n := int64(o.n)
	bmax := o.bmax
	if bmax == 0 {
		bmax = n
	}
	in := workload.Elems(kind, o.n, o.b, o.seed)
	f := sys.Stage(in)
	mc := sys.Machine()
	p := empart.Params{K: o.k, A: o.a, B: bmax}

	sys.ResetStats()
	if o.trace {
		sys.EnableTracing()
	}
	stopTelemetry, err := startTelemetry(sys, o)
	if err != nil {
		return "", err
	}
	defer stopTelemetry()
	var bound float64
	switch o.algo {
	case "splitters":
		out, err := sys.Splitters(f, p)
		if err != nil {
			return "", err
		}
		if _, err := verify.Splitters(in, sys.Read(out), p.K, p.A, p.B); err != nil {
			return "", fmt.Errorf("output invalid: %w", err)
		}
		fmt.Fprintf(&sb, "%s %s: %d splitters verified\n", o.algo, p.Variant(n), out.Len())
		bound = mc.SplittersTwoSidedUB(n, p.K, max(p.A, 1), min(p.B, n))
	case "partition":
		res, err := sys.Partition(f, p)
		if err != nil {
			return "", err
		}
		if err := verify.Partition(in, sys.Read(res.Data), res.Sizes, p.K, p.A, p.B); err != nil {
			return "", fmt.Errorf("output invalid: %w", err)
		}
		fmt.Fprintf(&sb, "%s %s: %d partitions verified\n", o.algo, p.Variant(n), len(res.Sizes))
		bound = mc.PartitionTwoSidedUB(n, p.K, max(p.A, 1), min(p.B, n))
	case "multiselect":
		ranks := equiRanks(n, p.K)
		out, err := sys.MultiSelect(f, ranks)
		if err != nil {
			return "", err
		}
		if err := verify.MultiSelect(in, ranks, sys.Read(out)); err != nil {
			return "", fmt.Errorf("output invalid: %w", err)
		}
		fmt.Fprintf(&sb, "multiselect: %d ranks verified\n", len(ranks))
		bound = mc.MultiSelect(n, p.K)
	case "multipartition":
		sizes := equiSizes(n, p.K)
		out, err := sys.MultiPartition(f, sizes)
		if err != nil {
			return "", err
		}
		got := sys.Read(out)
		if err := verify.SameMultiset(got, in); err != nil {
			return "", err
		}
		if err := verify.OrderedSegments(got, sizes); err != nil {
			return "", fmt.Errorf("output invalid: %w", err)
		}
		fmt.Fprintf(&sb, "multipartition: %d partitions verified\n", len(sizes))
		bound = mc.MultiPartition(n, p.K)
	case "precise":
		out, err := sys.PrecisePartition(f, bmax)
		if err != nil {
			return "", err
		}
		if err := verify.PrecisePartition(in, sys.Read(out), bmax); err != nil {
			return "", fmt.Errorf("output invalid: %w", err)
		}
		fmt.Fprintf(&sb, "precise partitioning at b=%d verified\n", bmax)
		bound = mc.PartitionLeft(n, bmax)
	case "sort":
		out, err := sys.Sort(f)
		if err != nil {
			return "", err
		}
		got := sys.Read(out)
		if err := verify.Sorted(got); err != nil {
			return "", err
		}
		if err := verify.SameMultiset(got, in); err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "sort verified\n")
		bound = mc.Sort(n)
	case "histogram":
		buckets, err := sys.EquiDepthHistogram(f, int(p.K), o.lo, o.hi)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "equi-depth histogram, %d buckets:\n", len(buckets))
		for i, b := range buckets {
			fmt.Fprintf(&sb, "  bucket %2d: upper key %12d  depth %d\n", i, b.Upper.Key, b.Count)
		}
	default:
		return "", fmt.Errorf("unknown -algo %q", o.algo)
	}

	st := sys.Stats()
	scan := float64(n) / float64(o.b)
	fmt.Fprintf(&sb, "machine: %v   input: %s N=%d\n", cfg, kind, n)
	fmt.Fprintf(&sb, "cost: %v  (%.2f scans)\n", st, float64(st.Total())/scan)
	if bound > 0 {
		fmt.Fprintf(&sb, "paper bound: %.0f I/Os -> fitted constant %.2f\n", bound, float64(st.Total())/bound)
	}
	fmt.Fprintf(&sb, "peak memory: %d of M=%d elements\n", sys.PeakMemory(), o.m)
	if rep := sys.ShardReport(); rep.Shards > 1 {
		fmt.Fprintf(&sb, "parallel engine: %d shards, %d workers\n", rep.Shards, rep.Workers)
	}
	if o.trace {
		fmt.Fprintf(&sb, "\nphase trace:\n%s", sys.TraceReport())
	}
	return sb.String(), nil
}

// startTelemetry attaches a metrics registry and starts the opt-in scrape
// endpoint and progress reporter. The total I/O count of most emsplit algos
// is not known upfront, so progress lines stream phase, work done and rate
// without an ETA. The returned stop function is safe to call once.
func startTelemetry(sys *empart.System, o options) (func(), error) {
	if o.metricsAddr == "" && o.progress == 0 && o.otlp == "" && !o.top {
		return func() {}, nil
	}
	out := o.progressOut
	if out == nil {
		out = os.Stderr
	}
	reg := sys.EnableMetrics()
	if o.otlp != "" && sys.Tracer() == nil {
		sys.EnableTracing()
	}
	var srv *metrics.Server
	if o.metricsAddr != "" {
		var err error
		srv, err = metrics.Serve(o.metricsAddr, reg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "emsplit: metrics on %s\n", srv.URL())
	}
	var rep *metrics.Reporter
	if o.progress > 0 {
		rep = metrics.StartProgress(out, o.progress, func() metrics.Progress {
			snap := reg.Snapshot()
			return metrics.Progress{
				Phase: snap.Infos["empart_phase"],
				Done:  snap.Counter("empart_logical_reads_total") + snap.Counter("empart_logical_writes_total"),
				Unit:  "ios",
			}
		})
	}
	var dash *metrics.Dash
	if o.top {
		dash = metrics.StartDash(out, time.Second, 0, func() (metrics.Snapshot, error) {
			return reg.Snapshot(), nil
		})
	}
	return func() {
		if rep != nil {
			rep.Stop()
		}
		if dash != nil {
			dash.Stop()
		}
		if srv != nil {
			if err := srv.Close(); err != nil {
				fmt.Fprintf(out, "emsplit: metrics server: %v\n", err)
			}
		}
		if o.otlp != "" {
			if err := writeOTLP(sys, o.otlp); err != nil {
				fmt.Fprintf(out, "emsplit: otlp export: %v\n", err)
			}
		}
	}, nil
}

// writeOTLP exports the run's trace and metrics as OTLP/JSON documents:
// prefix.trace.json and prefix.metrics.json.
func writeOTLP(sys *empart.System, prefix string) error {
	tr, err := sys.TraceOTLP("emsplit")
	if err != nil {
		return err
	}
	if tr != nil {
		if err := os.WriteFile(prefix+".trace.json", tr, 0o644); err != nil {
			return err
		}
	}
	mt, err := sys.MetricsOTLP("emsplit")
	if err != nil {
		return err
	}
	if mt != nil {
		if err := os.WriteFile(prefix+".metrics.json", mt, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func equiRanks(n, k int64) []int64 {
	ranks := make([]int64, k-1)
	for i := range ranks {
		ranks[i] = int64(i+1) * n / k
	}
	return ranks
}

func equiSizes(n, k int64) []int64 {
	sizes := make([]int64, k)
	prev := int64(0)
	for i := range sizes {
		cum := int64(i+1) * n / k
		sizes[i] = cum - prev
		prev = cum
	}
	return sizes
}
