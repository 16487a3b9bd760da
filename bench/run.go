package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro"
	"repro/internal/emio"
	gen "repro/internal/workload"
)

// setupReps is how many times a run builds its System and stages the input;
// setup_s is their median, and the last System serves the calls.
const setupReps = 5

// algoSeed1 and algoSeed2 seed the library's random source before every
// call. They are fixed, not drawn from -seed: the seed picks inputs only.
const algoSeed1, algoSeed2 = 0x7a1e5, 0x9e3779b9

// options are the settings of one run of one workload.
type options struct {
	seed    uint64
	seconds float64 // how long the client issues calls
	dir     string  // backing files; traces go under dir/traces
	quick   bool    // small inputs, for the smoke test
}

// passResult is what one pass over a workload reports.
type passResult struct {
	attempted, failed int64
	firstErr          error
	backend           backendRecord
	metrics           metricSet
}

// backendRecord says which physical backend a workload asked for and which
// armed. A file-backed workload whose O_DIRECT or io_uring did not arm is
// degraded: its numbers are real but describe a different backend.
type backendRecord struct {
	Kind     string `json:"kind"` // "memory" or "file"
	Direct   bool   `json:"direct"`
	Uring    bool   `json:"uring"`
	Degraded bool   `json:"degraded"`
}

// input generates the workload's elements from the seed and the oracle the
// checks use. Both are host work, outside every timed region.
func (w *workload) input(opt options) ([]empart.Elem, *oracle) {
	elems := gen.Elems(w.kind, w.size(opt.quick), w.cfg.B, opt.seed)
	return elems, newOracle(elems, w.sorted)
}

// config returns the workload's machine configuration for dir, asking for
// O_DIRECT only where the directory's filesystem accepts it.
func (w *workload) config(dir string) empart.Config {
	cfg := w.cfg
	if w.file && cfg.Pipeline.Direct && !empart.DirectIOSupported(dir) {
		cfg.Pipeline.Direct = false
	}
	return cfg
}

func (w *workload) backingPath(dir string) string { return filepath.Join(dir, w.name+".bin") }

// open builds the workload's System: New for memory workloads, NewFileBacked
// on a backing file under dir otherwise.
func (w *workload) open(cfg empart.Config, dir string) (*empart.System, error) {
	if !w.file {
		return empart.New(cfg)
	}
	return empart.NewFileBacked(cfg, w.backingPath(dir))
}

// close closes sys and removes its backing file, so that the file's cached
// pages are dropped rather than written back while the next run measures.
func (w *workload) close(sys *empart.System, dir string) error {
	err := sys.Close()
	if w.file {
		if rerr := os.Remove(w.backingPath(dir)); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// backend reports what armed on sys.
func (w *workload) backend(sys *empart.System, dir string) backendRecord {
	if !w.file {
		return backendRecord{Kind: "memory"}
	}
	rec := backendRecord{Kind: "file", Direct: directArmed(w.backingPath(dir)), Uring: sys.UringActive()}
	want := w.cfg.Pipeline
	rec.Degraded = want.Direct && !rec.Direct || want.Uring && !rec.Uring
	return rec
}

// stage loads the input and waits until it is on the backing store.
func stage(sys *empart.System, elems []empart.Elem) (*empart.File, error) {
	in := sys.Stage(elems)
	if err := in.Sync(); err != nil {
		return nil, fmt.Errorf("stage input: %w", err)
	}
	return in, nil
}

// setUp builds the System and stages the input setupReps times, timing each,
// and keeps the last. The times are the set-up a user of the library pays.
func (w *workload) setUp(cfg empart.Config, dir string, elems []empart.Elem) (*empart.System, *empart.File, []float64, error) {
	var times []float64
	var sys *empart.System
	var in *empart.File
	for range setupReps {
		if sys != nil {
			if err := w.close(sys, dir); err != nil {
				return nil, nil, nil, fmt.Errorf("close system: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = w.open(cfg, dir); err != nil {
			return nil, nil, nil, fmt.Errorf("open system: %w", err)
		}
		if in, err = stage(sys, elems); err != nil {
			w.close(sys, dir)
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, in, times, nil
}

// client is the one closed-loop client: it makes the calls of a pass one
// after another and checks each output before the next call.
type client struct {
	sys   *empart.System
	in    *empart.File
	o     *oracle
	calls []call
	ref   []empart.Stats // logical I/O of each call's first run
	seen  []bool

	acc   *traceAcc   // while tracing: spans, and a fresh registry around each call
	prof  bool        // record what the process spends around each call
	procs []procDelta // one per call while prof is set

	attempted, failed int64
	firstErr          error
}

func newClient(sys *empart.System, in *empart.File, o *oracle, calls []call) *client {
	return &client{sys: sys, in: in, o: o, calls: calls,
		ref: make([]empart.Stats, len(calls)), seen: make([]bool, len(calls))}
}

// span opens a benchmark span on the system's tracer when tracing; the
// program's own spans for the calls made inside it become its children.
func (c *client) span(name string) *empart.Span {
	if c.acc == nil {
		return nil
	}
	return c.sys.Ctx().StartSpan(name)
}

// do makes call i once, checks it, and returns its wall and CPU time.
func (c *client) do(i int) (wall, cpu time.Duration) {
	// The randomized algorithms draw from the System's random source, which
	// would otherwise carry on from the previous call; reseeding makes every
	// run of a call do the same logical I/O, as on a fresh System.
	c.sys.Ctx().SetSeed(algoSeed1, algoSeed2)
	var p0 procDelta
	if c.prof {
		p0 = readProc()
	}
	if c.acc != nil {
		c.acc.begin(c.sys)
	}
	before := c.sys.Stats()
	sp := c.span("bench/op")
	cpu0 := cpuTime()
	t0 := time.Now()
	out, sizes, err := c.calls[i].run(c.sys, c.in)
	wall = time.Since(t0)
	cpu = cpuTime() - cpu0
	sp.End()
	st := c.sys.Stats().Sub(before)
	if c.acc != nil {
		c.acc.end(c.sys, st)
	}
	if c.prof {
		c.procs = append(c.procs, readProc().sub(p0))
	}
	if err == nil {
		vsp := c.span("bench/verify")
		err = c.check(i, out, sizes, st)
		vsp.End()
	}
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("call %d: %w", i, err)
		}
	}
	return wall, cpu
}

// check verifies one output and the invariants every call must keep: peak
// memory within M, no scratch file live once the output is released, and
// the same logical I/O as the call's first run.
func (c *client) check(i int, out *empart.File, sizes []int64, st empart.Stats) error {
	data, err := readAll(c.sys, out)
	out.Release()
	if err != nil {
		return err
	}
	if err := c.calls[i].check(c.o, data, sizes); err != nil {
		return err
	}
	if live := c.sys.LiveScratchFiles(); len(live) > 0 {
		return fmt.Errorf("%d scratch files live after release, e.g. %s", len(live), live[0])
	}
	if peak, m := c.sys.PeakMemory(), int64(c.sys.Config().M); peak > m {
		return fmt.Errorf("peak memory %d elements exceeds M = %d", peak, m)
	}
	if !c.seen[i] {
		c.ref[i], c.seen[i] = st, true
	} else if st != c.ref[i] {
		return fmt.Errorf("logical I/O %+v differs from the first run's %+v", st, c.ref[i])
	}
	return nil
}

// readAll reads an output through a sequential emio.Reader. System.Read
// issues one unbuffered read per block, which on O_DIRECT with B = 32 takes
// longer than the Sort it would check; the Reader's read-ahead coalesces
// them. Its logical reads fall outside the Stats measured for the call.
func readAll(sys *empart.System, f *empart.File) ([]empart.Elem, error) {
	r, err := emio.NewReader(sys.Ctx(), f)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data := make([]empart.Elem, 0, f.Len())
	for e, ok := r.Next(); ok; e, ok = r.Next() {
		data = append(data, e)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("read output: %w", err)
	}
	return data, nil
}

// pass makes every call once, after a collection that clears the previous
// pass's verification garbage, and returns the calls' wall and CPU times.
func (c *client) pass() (walls, cpus []float64) {
	runtime.GC()
	for i := range c.calls {
		wall, cpu := c.do(i)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	}
	return walls, cpus
}

// ios sums the logical I/O and the bound over one pass's calls.
func (c *client) ios() (total, ub float64) {
	m := c.sys.Machine()
	for i, st := range c.ref {
		total += float64(st.Total())
		ub += c.calls[i].ub(m)
	}
	return total, ub
}

// refStats sums the reads and the writes of one pass's calls.
func (c *client) refStats() (reads, writes float64) {
	for _, st := range c.ref {
		reads += float64(st.Reads)
		writes += float64(st.Writes)
	}
	return reads, writes
}

// untraced is the end-to-end pass: set-up, then passes of calls for
// opt.seconds with no tracer attached.
func untraced(w *workload, opt options) (*passResult, error) {
	elems, o := w.input(opt)
	cfg := w.config(opt.dir)
	sys, in, setups, err := w.setUp(cfg, opt.dir, elems)
	if err != nil {
		return nil, err
	}
	defer w.close(sys, opt.dir)
	n := len(elems)
	elems = nil // the staged file holds the input now
	if w.metrics {
		sys.SetMetrics(empart.NewMetricsRegistry())
	}
	c := newClient(sys, in, o, w.calls(int64(n), opt.seed))
	var walls, cpus []float64
	var space float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < opt.seconds {
		pw, pc := c.pass()
		walls = append(walls, pw...)
		cpus = append(cpus, pc...)
		if space == 0 {
			// The footprint of one pass: the parallel engine's backing file
			// keeps growing over later calls, which would tie the metric
			// to the run's length.
			space = spaceAmp(sys, n)
		}
	}
	total, ub := c.ios()
	p50 := median(walls)
	vals := map[string]float64{
		"job_s_p50":     p50,
		"job_s_p99":     percentile(walls, 0.99),
		"elems_per_s":   float64(n) / p50,
		"queries_per_s": float64(len(walls)) / sum(walls),
		"logical_ios":   total / float64(len(c.calls)),
		"ratio_ub":      total / ub,
		"cpu_s":         median(cpus),
		"space_amp":     space,
		"setup_s":       median(setups),
		"ok_ratio":      float64(c.attempted-c.failed) / float64(c.attempted),
	}
	return &passResult{attempted: c.attempted, failed: c.failed, firstErr: c.firstErr,
		backend: w.backend(sys, opt.dir), metrics: fill(endToEnd, vals)}, nil
}

// spaceAmp is the peak disk footprint over the input's bytes: the larger of
// the model's peak live blocks and the backing file's high-water size.
func spaceAmp(sys *empart.System, n int) float64 {
	const elemBytes = 16
	peak := max(sys.PeakDiskBlocks()*int64(sys.Config().B)*elemBytes, sys.BackingBytes())
	return float64(peak) / float64(int64(n)*elemBytes)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	u, s := rusage()
	return u + s
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile of xs (0 when empty); the 0.5
// quantile of an even count is the mean of the two middle values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// directArmed reports whether the process holds path open with O_DIRECT,
// read from the open file's flags in /proc/self/fdinfo.
func directArmed(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return false
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return false
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil || target != abs {
			continue
		}
		info, err := os.ReadFile(filepath.Join("/proc/self/fdinfo", fd.Name()))
		if err != nil {
			continue
		}
		var pos, flags int64
		if _, err := fmt.Sscanf(string(info), "pos:\t%d\nflags:\t%o", &pos, &flags); err == nil && flags&syscall.O_DIRECT != 0 {
			return true
		}
	}
	return false
}
