// Package cli holds what the emsort, emsplit and embench commands share: the
// machine, backend and telemetry flags and the Config they build, opening a
// System, the host line, the signal trap and typed-error rendering, a
// cancelled job's partial-cost line, and the telemetry observers. Each
// command keeps only its own flags and run logic.
package cli

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
	"sync/atomic"
	"syscall"
	"time"

	empart "repro"
	"repro/internal/emio/metrics"
)

// Flags are the machine, backend and telemetry flags of a command.
type Flags struct {
	M, B       int
	Workers    int
	Backing    string
	Uring      bool
	Checksum   bool
	Retry      int
	Log        string
	DiskBudget int64

	Trace       bool
	MetricsAddr string
	Progress    time.Duration
	OTLP        string
}

// Register adds to fs the flags every command takes: -m, -b, -trace,
// -metrics-addr and -progress. With backend set it also adds the flags
// of a command that runs one job on a chosen store: -workers, -backing,
// -uring, -checksum, -retry, -log, -disk-budget and -otlp.
func Register(fs *flag.FlagSet, backend bool) *Flags {
	f := &Flags{}
	fs.IntVar(&f.M, "m", 1<<12, "memory size M in elements")
	fs.IntVar(&f.B, "b", 1<<5, "block size B in elements")
	fs.BoolVar(&f.Trace, "trace", false, "print each run's phase trace (span tree with I/O and memory attribution) with its report")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this host:port while the command runs")
	fs.DurationVar(&f.Progress, "progress", 0, "print a progress line to stderr at this interval (0 = off)")
	if !backend {
		return f
	}
	fs.IntVar(&f.Workers, "workers", 0, "goroutines that sort each in-memory run of a sort (0 or 1 = one; output, I/O counts and trace are the same at every worker count)")
	fs.StringVar(&f.Backing, "backing", "", "path for a real backing file for the simulated disk (default: in-memory)")
	fs.BoolVar(&f.Uring, "uring", false, "submit physical I/O through an io_uring (needs -backing; degrades silently to positioned syscalls where unsupported)")
	fs.BoolVar(&f.Checksum, "checksum", false, "CRC32C-checksum every stored block and fail on corruption at read time")
	fs.IntVar(&f.Retry, "retry", 0, "retry transient backing-I/O faults up to this many attempts (0 or 1 = off)")
	fs.StringVar(&f.Log, "log", "", "append structured JSON-lines event log to this file")
	fs.Int64Var(&f.DiskBudget, "disk-budget", 0, "cap the simulated disk footprint at this many bytes (0 = unbounded); a job that would exceed it degrades where it can and otherwise fails with a typed resource error")
	fs.StringVar(&f.OTLP, "otlp", "", "write OTLP/JSON trace+metrics export to PREFIX.trace.json / PREFIX.metrics.json (implies tracing and metrics)")
	return f
}

// Config is the machine the flags describe.
func (f *Flags) Config() empart.Config {
	return empart.Config{
		M: f.M, B: f.B,
		Workers:    f.Workers,
		Checksum:   f.Checksum,
		Retry:      empart.Retry{MaxAttempts: f.Retry},
		Log:        empart.LogConfig{Level: slog.LevelDebug, Path: f.Log},
		DiskBudget: f.DiskBudget,
		Pipeline:   empart.Pipeline{Uring: f.Uring},
	}
}

// Open creates the System the flags describe: file-backed at -backing, in
// host memory otherwise.
func (f *Flags) Open() (*empart.System, error) {
	if f.Backing != "" {
		return empart.NewFileBacked(f.Config(), f.Backing)
	}
	return empart.New(f.Config())
}

// Host describes the physical backends this host could exercise and the one
// sys runs on, as in "directIO=true uring=false  backend=file", so a saved
// report is self-describing (the benchmark's JSON carries the same fields).
func (f *Flags) Host(sys *empart.System) string {
	probeDir, backend := os.TempDir(), "memory"
	if f.Backing != "" {
		probeDir, backend = filepath.Dir(f.Backing), "file"
		if sys.UringActive() {
			backend = "file+uring"
		}
	}
	return fmt.Sprintf("directIO=%v uring=%v  backend=%s",
		empart.DirectIOSupported(probeDir), empart.UringSupported(), backend)
}

// Main runs the command called name: it parses the command line, traps
// SIGINT and SIGTERM, and exits nonzero with the rendered error when run
// fails.
func (f *Flags) Main(name string, run func() error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Parse()
	trapSignals()
	if err := run(); err != nil {
		log.Fatal(render(err))
	}
}

// live is the System the signal trap cancels: the running job's, nil
// between jobs.
var live atomic.Pointer[empart.System]

// Live publishes sys to the signal trap while its job runs; call the
// returned function when the job is done.
func Live(sys *empart.System) (done func()) {
	live.Store(sys)
	return func() { live.Store(nil) }
}

// trapSignals cancels the live System on SIGINT/SIGTERM: the running job
// unwinds with a typed cancellation error at its next block transfer and the
// command exits nonzero. With no live System, or on a second signal, the
// process exits at once.
func trapSignals() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if sys := live.Load(); sys != nil {
			sys.Cancel(fmt.Errorf("received %v", sig))
			<-ch // a second signal forces the issue
		}
		os.Exit(130)
	}()
}

// render prefixes the resilience layer's typed failures so a log line (and
// the nonzero exit it precedes) tells data corruption apart from device
// trouble without parsing the wrapped chain. Other errors pass unchanged.
func render(err error) string {
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

// PartialCost prints on w, when err cancelled a job of the command called
// name, the block I/Os the job had paid, so an interrupted long run leaves a
// trail.
func PartialCost(w io.Writer, name string, sys *empart.System, err error) {
	if errors.Is(err, empart.ErrCancelled) {
		fmt.Fprintf(w, "%s: cancelled; partial cost %v\n", name, sys.Stats())
	}
}

// Observers are the telemetry that runs beside a command's jobs: a metrics
// registry, the scrape endpoint and progress reporter the flags ask for,
// and the -otlp export written when they stop. A nil *Observers, which
// Observe returns when no telemetry flag is set, does nothing.
type Observers struct {
	name   string
	w      io.Writer
	otlp   string
	reg    *empart.MetricsRegistry
	tracer *empart.Tracer
	srv    *metrics.Server
	rep    *metrics.Reporter
}

// Observe starts the observers the flags ask for, reporting as the command
// called name on w. total is the jobs' predicted logical I/O, the progress
// line's denominator for its percentage and ETA; 0 means unknown.
func (f *Flags) Observe(name string, total int64, w io.Writer) (*Observers, error) {
	if f.MetricsAddr == "" && f.Progress == 0 && f.OTLP == "" {
		return nil, nil
	}
	o := &Observers{name: name, w: w, otlp: f.OTLP, reg: empart.NewMetricsRegistry()}
	if f.MetricsAddr != "" {
		srv, err := metrics.Serve(f.MetricsAddr, o.reg)
		if err != nil {
			return nil, err
		}
		o.srv = srv
		fmt.Fprintf(w, "%s: metrics on %s\n", name, srv.URL())
	}
	if f.Progress > 0 {
		o.rep = metrics.StartProgress(w, f.Progress, func() metrics.Progress {
			// Sampled on the reporter goroutine: read only the registry's
			// atomic instruments, never the Disk's unsynchronized counters.
			snap := o.reg.Snapshot()
			return metrics.Progress{
				Phase: snap.Infos["empart_phase"],
				Done:  snap.Counter("empart_logical_reads_total") + snap.Counter("empart_logical_writes_total"),
				Total: total,
				Unit:  "ios",
			}
		})
	}
	return o, nil
}

// Attach feeds sys's telemetry to the observers: its metrics and, for
// -otlp, its trace, attaching a tracer when sys has none.
func (o *Observers) Attach(sys *empart.System) {
	if o == nil {
		return
	}
	sys.SetMetrics(o.reg)
	if o.otlp != "" {
		if sys.Tracer() == nil {
			sys.SetTracer(empart.NewTracer())
		}
		o.tracer = sys.Tracer()
	}
}

// Stop prints the final progress line, stops the scrape endpoint and writes
// the -otlp export.
func (o *Observers) Stop() {
	if o == nil {
		return
	}
	if o.rep != nil {
		o.rep.Stop()
	}
	if o.srv != nil {
		if err := o.srv.Close(); err != nil {
			fmt.Fprintf(o.w, "%s: metrics server: %v\n", o.name, err)
		}
	}
	if o.otlp != "" {
		if err := o.writeOTLP(); err != nil {
			fmt.Fprintf(o.w, "%s: otlp export: %v\n", o.name, err)
		}
	}
}

// writeOTLP exports the attached trace and the metrics as OTLP/JSON
// documents next to each other: PREFIX.trace.json and PREFIX.metrics.json.
func (o *Observers) writeOTLP() error {
	tr, err := o.tracer.OTLP(o.name)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.otlp+".trace.json", tr, 0o644); err != nil {
		return err
	}
	mt, err := o.reg.OTLP(o.name, time.Now())
	if err != nil {
		return err
	}
	return os.WriteFile(o.otlp+".metrics.json", mt, 0o644)
}
