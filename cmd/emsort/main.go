// Command emsort sorts real data through the simulated external-memory
// machine: it reads whitespace-separated signed integers from a file or
// stdin, stages them, runs external merge sort under the (M, B) budget, and
// writes the sorted keys to a file or stdout, reporting the block I/Os the
// sort cost and the paper-model bound.
//
// Usage:
//
//	emsort [-m 4096] [-b 32] [-in keys.txt] [-out sorted.txt]
//	emsort -metrics-addr :9090 -progress 2s -in big.txt -out sorted.txt
//	seq 100000 | shuf | emsort > sorted.txt
//
// With -workers N the sort runs on the parallel sharded engine: N goroutines
// over S logical shards, same outputs and same logical I/O counts, less wall
// clock. With -metrics-addr the job serves live Prometheus metrics and pprof
// while it runs; with -progress it streams phase/ETA lines to the report
// stream.
// -checksum and -retry arm the resilience layer: corrupted blocks and
// persistent transient faults abort the job with a typed, nonzero-exit error.
//
// Job lifecycle:
//
//   - SIGINT/SIGTERM cancel the running sort cooperatively: the job stops
//     within about one block transfer, reports its partial I/O cost, flushes
//     telemetry and exits nonzero. A second signal exits immediately.
//   - -disk-budget caps the simulated disk's footprint in bytes; a job that
//     would exceed it degrades its merge fan-in where possible and otherwise
//     fails with a typed resource error.
//   - -journal FILE makes the sort crash-safe (needs -backing): completed
//     runs and merge passes are checkpointed to FILE, and after a crash the
//     same command with -resume continues from the last completed phase
//     instead of restarting. The resumed output is byte-identical.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"flag"

	empart "repro"
	"repro/internal/emio/metrics"
	"repro/internal/verify"
)

var (
	flagM        = flag.Int("m", 1<<12, "memory size M in elements")
	flagB        = flag.Int("b", 1<<5, "block size B in elements")
	flagWorkers  = flag.Int("workers", 0, "worker goroutines for the parallel sharded engine (0 = sequential engine; the parallel engine's output matches it bit for bit, and engine I/O counts are identical for every worker count)")
	flagIn       = flag.String("in", "", "input file of integers (default stdin)")
	flagOut      = flag.String("out", "", "output file (default stdout)")
	flagBacking  = flag.String("backing", "", "path for a real backing file for the simulated disk (default: in-memory)")
	flagUring    = flag.Bool("uring", false, "submit physical I/O through an io_uring with the async pipeline (needs -backing; degrades silently to positioned syscalls where unsupported)")
	flagTrace    = flag.Bool("trace", false, "print a phase trace (span tree with I/O attribution) to the report stream")
	flagMetrics  = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this host:port while the job runs")
	flagProg     = flag.Duration("progress", 0, "print a progress/ETA line to the report stream at this interval (0 = off)")
	flagSum      = flag.Bool("checksum", false, "CRC32C-checksum every stored block and fail on corruption at read time")
	flagRetry    = flag.Int("retry", 0, "retry transient backing-I/O faults up to this many attempts (0 or 1 = off)")
	flagLog      = flag.String("log", "", "append structured JSON-lines event log to this file")
	flagOTLP     = flag.String("otlp", "", "write OTLP/JSON trace+metrics export to PREFIX.trace.json / PREFIX.metrics.json (implies tracing and metrics)")
	flagTop      = flag.Bool("top", false, "render a live terminal dashboard to stderr while the job runs")
	flagJournal  = flag.String("journal", "", "checkpoint journal path: make the sort crash-safe, resumable with -resume (needs -backing, sequential only)")
	flagResume   = flag.Bool("resume", false, "resume a crashed job from -journal instead of starting fresh")
	flagFullSync = flag.Bool("full-sync", false, "power-loss durability: fsync backing file and journal at every phase barrier (default journaling never fsyncs — it survives process crashes like SIGKILL and OOM at near-zero overhead, but not a power cut)")
	flagBudget   = flag.Int64("disk-budget", 0, "cap the simulated disk footprint at this many bytes (0 = unbounded); jobs degrade or fail with a typed resource error")
	flagCrashW   = flag.Int64("crash-after-write", 0, "SIGKILL self at this positive physical write op (crash-harness hook; counted after staging; 0 disarms)")
)

// liveSys publishes the running System to the signal trap. Stored once the
// System exists, cleared when the job is done (so a late signal falls back
// to a plain exit).
var liveSys atomic.Pointer[empart.System]

// trapSignals cancels the live System on SIGINT/SIGTERM — the running sort
// observes the flag at its next block transfer and unwinds with a typed
// cancellation error, which main reports with partial stats and a nonzero
// exit. A second signal gives up on cooperation and exits immediately.
func trapSignals() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if sys := liveSys.Load(); sys != nil {
			sys.Cancel(fmt.Errorf("received %v", sig))
			<-ch // a second signal forces the issue
		}
		os.Exit(130)
	}()
}

// runOpts carries one emsort invocation.
type runOpts struct {
	cfg         empart.Config
	backing     string
	uring       bool
	trace       bool
	metricsAddr string
	progress    time.Duration
	otlp        string
	top         bool
	journal     string
	resume      bool
	fullSync    bool
	crashWrite  int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("emsort: ")
	flag.Parse()

	// The parallel engine's workers spend most of their time blocked in
	// syscalls; on hosts with fewer cores than workers, give the runtime a P
	// per blocked worker plus compute headroom so the device queue stays full.
	if want := 2 * *flagWorkers; want > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(want)
	}

	in := io.Reader(os.Stdin)
	if *flagIn != "" {
		f, err := os.Open(*flagIn)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	dst := io.Writer(os.Stdout)
	if *flagOut != "" {
		g, err := os.Create(*flagOut)
		if err != nil {
			log.Fatal(err)
		}
		defer g.Close()
		dst = g
	}
	o := runOpts{
		cfg: empart.Config{
			M: *flagM, B: *flagB,
			Workers:    *flagWorkers,
			Checksum:   *flagSum,
			Retry:      empart.Retry{MaxAttempts: *flagRetry},
			Log:        empart.LogConfig{Level: slog.LevelDebug, Path: *flagLog},
			DiskBudget: *flagBudget,
		},
		uring:       *flagUring,
		backing:     *flagBacking,
		trace:       *flagTrace,
		metricsAddr: *flagMetrics,
		progress:    *flagProg,
		otlp:        *flagOTLP,
		top:         *flagTop,
		journal:     *flagJournal,
		resume:      *flagResume,
		fullSync:    *flagFullSync,
		crashWrite:  *flagCrashW,
	}
	trapSignals()
	if err := run(o, in, dst, os.Stderr); err != nil {
		log.Fatal(renderErr(err))
	}
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

// reportAbort annotates a failed job on the report stream: a cancelled job
// prints the partial I/O cost it had paid, a quota-rejected one prints live
// usage. The error passes through for main's typed rendering and nonzero
// exit.
func reportAbort(sys *empart.System, err error, report io.Writer) error {
	if errors.Is(err, empart.ErrCancelled) {
		fmt.Fprintf(report, "emsort: cancelled; partial cost %v\n", sys.Stats())
	}
	var re *empart.ResourceError
	if errors.As(err, &re) && sys.DiskBudget() > 0 {
		fmt.Fprintf(report, "emsort: disk budget %d bytes, %d in use at failure\n",
			sys.DiskBudget(), sys.DiskBytes())
	}
	return err
}

// startTelemetry attaches a metrics registry to sys and starts the opt-in
// observers: the HTTP scrape endpoint (o.metricsAddr) and the periodic
// progress reporter (o.progress), which estimates completion against
// totalIOs, the paper-model I/O bound for the job. The returned stop
// function flushes the final progress line and shuts the endpoint down.
func startTelemetry(sys *empart.System, o runOpts, totalIOs int64, report io.Writer) (func(), error) {
	if o.metricsAddr == "" && o.progress == 0 && o.otlp == "" && !o.top {
		return func() {}, nil
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
		fmt.Fprintf(report, "emsort: metrics on %s\n", srv.URL())
	}
	var rep *metrics.Reporter
	if o.progress > 0 {
		rep = metrics.StartProgress(report, o.progress, func() metrics.Progress {
			// Sampled on the reporter goroutine: read only the registry's
			// atomic instruments, never the Disk's unsynchronized counters.
			snap := reg.Snapshot()
			return metrics.Progress{
				Phase: snap.Infos["empart_phase"],
				Done:  snap.Counter("empart_logical_reads_total") + snap.Counter("empart_logical_writes_total"),
				Total: totalIOs,
				Unit:  "ios",
			}
		})
	}
	var dash *metrics.Dash
	if o.top {
		dash = metrics.StartDash(os.Stderr, time.Second, 0, func() (metrics.Snapshot, error) {
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
				fmt.Fprintf(report, "emsort: metrics server: %v\n", err)
			}
		}
		if o.otlp != "" {
			if err := writeOTLP(sys, o.otlp); err != nil {
				fmt.Fprintf(report, "emsort: otlp export: %v\n", err)
			}
		}
	}, nil
}

// writeOTLP exports the run's trace and metrics as OTLP/JSON documents next
// to each other: prefix.trace.json and prefix.metrics.json.
func writeOTLP(sys *empart.System, prefix string) error {
	tr, err := sys.TraceOTLP("emsort")
	if err != nil {
		return err
	}
	if tr != nil {
		if err := os.WriteFile(prefix+".trace.json", tr, 0o644); err != nil {
			return err
		}
	}
	mt, err := sys.MetricsOTLP("emsort")
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

// run reads integers from in, sorts them on an EM machine of the given
// configuration (optionally file-backed), writes the sorted keys to dst and
// an I/O report (plus a phase trace when requested) to report. With a
// journal configured it routes through the crash-safe job layer instead.
func run(o runOpts, in io.Reader, dst, report io.Writer) error {
	if o.uring {
		o.cfg.Pipeline.Enabled = true
		o.cfg.Pipeline.Uring = true
	}
	if o.journal != "" || o.resume {
		return runJob(o, in, dst, report)
	}
	elems, err := parseKeys(in)
	if err != nil {
		return err
	}
	var sys *empart.System
	if o.backing != "" {
		sys, err = empart.NewFileBacked(o.cfg, o.backing)
	} else {
		sys, err = empart.New(o.cfg)
	}
	if err != nil {
		return err
	}
	defer sys.Close()
	liveSys.Store(sys)
	defer liveSys.Store(nil)
	reportBackend(sys, o, report)
	f := sys.Stage(elems)
	armCrash(sys, o)
	sys.ResetStats()
	if o.trace {
		sys.EnableTracing()
	}
	n := int64(len(elems))
	mc := sys.Machine()
	stopTelemetry, err := startTelemetry(sys, o, int64(mc.Sort(n)), report)
	if err != nil {
		return err
	}
	out, err := sys.Sort(f)
	stopTelemetry()
	if err != nil {
		return reportAbort(sys, err, report)
	}
	return emit(sys, o, n, out, dst, report)
}

// runJob is the crash-safe path: the sort runs through a checkpoint journal,
// either fresh (-journal) or resumed after a crash (-journal -resume).
func runJob(o runOpts, in io.Reader, dst, report io.Writer) error {
	job, err := empart.OpenSortJob(empart.JobConfig{
		Config:   o.cfg,
		Path:     o.backing,
		Journal:  o.journal,
		Resume:   o.resume,
		FullSync: o.fullSync,
	}, func() ([]empart.Elem, error) { return parseKeys(in) })
	if err != nil {
		return err
	}
	defer job.Close()
	sys := job.System()
	liveSys.Store(sys)
	defer liveSys.Store(nil)
	reportBackend(sys, o, report)
	if o.resume {
		runs, lastPass, done := job.Resumable()
		fmt.Fprintf(report, "emsort: resuming from %s: %d completed run(s), last merge pass %d, done=%v\n",
			o.journal, runs, lastPass, done)
	}
	armCrash(sys, o)
	sys.ResetStats()
	if o.trace {
		sys.EnableTracing()
	}
	n := job.N()
	mc := sys.Machine()
	stopTelemetry, err := startTelemetry(sys, o, int64(mc.Sort(n)), report)
	if err != nil {
		return err
	}
	out, err := job.Run()
	stopTelemetry()
	if err != nil {
		return reportAbort(sys, err, report)
	}
	return emit(sys, o, n, out, dst, report)
}

// reportBackend prints the startup line recording which physical backends
// the host could exercise and which one this run actually uses, so a saved
// report is self-describing (the bench JSONs carry the same host fields).
func reportBackend(sys *empart.System, o runOpts, report io.Writer) {
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
	fmt.Fprintf(report, "emsort: host directIO=%v uring=%v  backend=%s\n",
		empart.DirectIOSupported(probeDir), empart.UringSupported(), backend)
}

// armCrash installs the crash-harness injector when -crash-after-write is
// set to a positive op number: the process SIGKILLs itself at the scheduled
// physical write, modeling a power cut mid-job for the kill-resume tests.
// Zero and negative are both disarmed, so a zero-valued runOpts is safe.
func armCrash(sys *empart.System, o runOpts) {
	if o.crashWrite <= 0 {
		return
	}
	inj := empart.NewInjector(1)
	inj.CrashWrite(o.crashWrite)
	sys.SetInjector(inj)
}

// emit verifies and writes the sorted output and prints the cost report.
func emit(sys *empart.System, o runOpts, n int64, out *empart.File, dst, report io.Writer) error {
	sorted := sys.Read(out)
	if err := verify.Sorted(sorted); err != nil {
		return fmt.Errorf("internal error: %w", err)
	}
	w := bufio.NewWriter(dst)
	for _, e := range sorted {
		fmt.Fprintln(w, e.Key)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	st := sys.Stats()
	mc := sys.Machine()
	fmt.Fprintf(report, "emsort: N=%d M=%d B=%d  cost %v  bound %.0f  floor %.0f\n",
		n, o.cfg.M, o.cfg.B, st, mc.Sort(n), mc.SortFloor(n))
	if rep := sys.ShardReport(); rep.Shards > 1 {
		fmt.Fprintf(report, "emsort: parallel engine: %d shards, %d workers, balance %s\n",
			rep.Shards, rep.Workers, shardBalance(rep.ShardBytes))
	}
	if o.trace {
		fmt.Fprintf(report, "phase trace:\n%s", sys.TraceReport())
	}
	return nil
}

// shardBalance renders a shard byte vector as "max/mean=1.04" — the load
// balance of the parallel range merges (1.0 = perfect).
func shardBalance(bytes []int64) string {
	if len(bytes) == 0 {
		return "n/a"
	}
	var sum, max int64
	for _, b := range bytes {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return "n/a"
	}
	mean := float64(sum) / float64(len(bytes))
	return fmt.Sprintf("max/mean=%.2f", float64(max)/mean)
}

// parseKeys reads whitespace-separated signed integers.
func parseKeys(in io.Reader) ([]empart.Elem, error) {
	var elems []empart.Elem
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		k, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
		}
		elems = append(elems, empart.Elem{Key: k, Aux: int64(len(elems))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(elems) == 0 {
		return nil, fmt.Errorf("no input")
	}
	return elems, nil
}
