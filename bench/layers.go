package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/emio"
)

// The traced pass attributes a workload's time and I/O to layers. It runs the
// workload's calls in three settings, interleaved for opt.seconds: plain (no
// telemetry), with a metrics registry, and traced (tracer and a fresh
// registry per call). The plain or registry passes that match the untraced
// pass's setting give the reference op wall and the proc metrics; the traced
// calls give the registry histograms and the span tree, which is written as
// OTLP/JSON and read back for self times.

// procDelta is what the Go process spent around one call.
type procDelta struct {
	user, sys  time.Duration
	allocBytes uint64
	gcs        uint32
	pauseNS    uint64
}

// traceAcc accumulates what the traced calls record. Each traced call gets
// a fresh registry, detached before its output is checked, so verification
// reads never reach the histograms.
type traceAcc struct {
	calls         int
	hists         map[string][]int64 // histogram buckets by name, merged over calls
	logical, phys empart.Stats
	retries       int64
	hits, misses  int64
	queue         []int64 // write-queue depth, sampled every millisecond
	shards        empart.ShardReport
	reg           *empart.MetricsRegistry
	phys0         empart.Stats
	retry0        int64
	stop          chan struct{}
	sampled       chan []int64
}

// begin attaches a fresh registry and starts the queue-depth sampler.
func (a *traceAcc) begin(sys *empart.System) {
	a.reg = empart.NewMetricsRegistry()
	sys.SetMetrics(a.reg)
	a.phys0, a.retry0 = sys.PhysStats(), sys.RetryStats().Retries
	depth := a.reg.Gauge("empart_write_queue_depth", "").Value
	a.stop, a.sampled = make(chan struct{}), make(chan []int64, 1)
	go func() {
		t := time.NewTicker(time.Millisecond)
		var xs []int64
		for {
			select {
			case <-a.stop:
				t.Stop()
				a.sampled <- xs
				return
			case <-t.C:
				xs = append(xs, depth())
			}
		}
	}()
}

// end stops the sampler, folds the call's registry into the totals and
// detaches it.
func (a *traceAcc) end(sys *empart.System, logical empart.Stats) {
	close(a.stop)
	a.queue = append(a.queue, <-a.sampled...)
	snap := a.reg.Snapshot()
	sys.SetMetrics(nil)
	a.calls++
	a.logical = a.logical.Add(logical)
	a.phys = a.phys.Add(sys.PhysStats().Sub(a.phys0))
	a.retries += sys.RetryStats().Retries - a.retry0
	a.hits += snap.Counter("empart_prefetch_hits_total")
	a.misses += snap.Counter("empart_prefetch_misses_total")
	if a.hists == nil {
		a.hists = make(map[string][]int64)
	}
	for name, h := range snap.Histograms {
		merged := a.hists[name]
		for len(merged) < len(h.Buckets) {
			merged = append(merged, 0)
		}
		for i, n := range h.Buckets {
			merged[i] += n
		}
		a.hists[name] = merged
	}
	a.shards = sys.ShardReport()
}

// quantile reads the q-quantile of a merged histogram the way the metrics
// package does: the upper bound 2^i of the bucket holding rank q·count.
func (a *traceAcc) quantile(name string, q float64) float64 {
	buckets := a.hists[name]
	var count int64
	for _, n := range buckets {
		count += n
	}
	if count == 0 {
		return 0
	}
	rank := max(1, int64(math.Ceil(q*float64(count))))
	var cum int64
	for i, n := range buckets {
		if cum += n; cum >= rank {
			return float64(int64(1) << i)
		}
	}
	return float64(int64(1) << (len(buckets) - 1))
}

// mode is the telemetry setting of an untraced pass.
type mode int

const (
	plain        mode = iota // no tracer, no registry
	withRegistry             // a metrics registry attached
)

// passWith runs one untraced pass in mode m.
func (c *client) passWith(m mode) []float64 {
	c.sys.SetTracer(nil)
	c.sys.SetMetrics(nil)
	if m == withRegistry {
		c.sys.SetMetrics(empart.NewMetricsRegistry())
	}
	walls, _ := c.pass()
	return walls
}

// tracedPass runs the traced pass of one workload and returns its per-layer
// metrics.
func tracedPass(w *workload, opt options) (*passResult, error) {
	elems, o := w.input(opt)
	cfg := w.config(opt.dir)
	sys, err := w.open(cfg, opt.dir)
	if err != nil {
		return nil, fmt.Errorf("open system: %w", err)
	}
	defer w.close(sys, opt.dir)
	tr := empart.NewTracer()
	sys.SetTracer(tr)
	sp := sys.Ctx().StartSpan("bench/setup")
	in, err := stage(sys, elems)
	sp.End()
	sys.SetTracer(nil)
	if err != nil {
		return nil, err
	}
	n := len(elems)
	c := newClient(sys, in, o, w.calls(int64(n), opt.seed))
	e2e := plain
	if w.metrics {
		e2e = withRegistry
	}

	walls := map[mode][]float64{}
	run := func(m mode) {
		c.prof = m == e2e
		walls[m] = append(walls[m], sum(c.passWith(m))/float64(len(c.calls)))
		c.prof = false
	}
	start := time.Now()
	run(e2e) // warms the System the way the untraced pass finds it
	acc := &traceAcc{}
	c.acc = acc
	sys.SetTracer(tr)
	tracedWalls, _ := c.pass()
	sys.SetTracer(nil)
	c.acc = nil
	for i := 0; len(walls[plain]) == 0 || len(walls[withRegistry]) == 0 || time.Since(start).Seconds() < opt.seconds; i++ {
		run(mode(i % 2))
	}
	vals := map[string]float64{
		"emio.peak_mem_elems":   float64(sys.PeakMemory()),
		"emio.peak_disk_blocks": float64(sys.PeakDiskBlocks()),
	}

	sys.SetTracer(tr)
	sp = sys.Ctx().StartSpan("bench/probe")
	scanRead, scanWrite, err := probeScan(sys, n)
	sp.End()
	sys.SetTracer(nil)
	if err != nil {
		return nil, err
	}

	if w.cfg.Workers > 0 {
		seqIOs, err := sequentialSortIOs(cfg, elems)
		if err != nil {
			return nil, err
		}
		total, _ := c.ios()
		vals["empar.ios_vs_seq"] = total / seqIOs
	}
	elems = nil

	doc, err := tr.OTLP("empart-bench/" + w.name)
	if err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	traceDir := filepath.Join(opt.dir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, w.name+".otlp.json"), doc, 0o644); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	roots, err := parseOTLP(doc)
	if err != nil {
		return nil, err
	}

	calls := float64(len(c.calls))
	ref := median(walls[e2e])
	reads, writes := c.refStats()
	vals["telemetry.trace_overhead"] = sum(tracedWalls) / calls / ref
	vals["telemetry.metrics_ratio"] = median(walls[withRegistry]) / median(walls[plain])
	vals["emio.reads"] = reads / calls
	vals["emio.writes"] = writes / calls
	vals["emio.scan_read_ns_per_block"] = scanRead
	vals["emio.scan_write_ns_per_block"] = scanWrite
	vals["emio.share"] = (reads/calls*scanRead + writes/calls*scanWrite) / (ref * 1e9)
	procMetrics(c.procs, vals)
	acc.layerMetrics(vals)
	spanMetrics(roots, calls, acc.shards.Workers, vals)
	if b := acc.shards.ShardBytes; len(b) > 0 {
		vals["empar.shard_imbalance"] = float64(slices.Max(b)) / (float64(sumInts(b)) / float64(len(b)))
	}
	return &passResult{attempted: c.attempted, failed: c.failed, firstErr: c.firstErr,
		backend: w.backend(sys, opt.dir), metrics: fill(perLayer, vals)}, nil
}

// layerMetrics turns the traced calls' registries into the emio and phys
// metrics, per call.
func (a *traceAcc) layerMetrics(vals map[string]float64) {
	calls := float64(max(a.calls, 1))
	vals["emio.read_ns_p50"] = a.quantile("empart_logical_read_ns", 0.50)
	vals["emio.read_ns_p99"] = a.quantile("empart_logical_read_ns", 0.99)
	vals["emio.write_ns_p50"] = a.quantile("empart_logical_write_ns", 0.50)
	vals["emio.write_ns_p99"] = a.quantile("empart_logical_write_ns", 0.99)
	vals["phys.reads"] = float64(a.phys.Reads) / calls
	vals["phys.writes"] = float64(a.phys.Writes) / calls
	if p := a.phys.Total(); p > 0 {
		vals["phys.coalesce"] = float64(a.logical.Total()) / float64(p)
	}
	vals["phys.read_ns_p50"] = a.quantile("empart_phys_read_ns", 0.50)
	vals["phys.read_ns_p99"] = a.quantile("empart_phys_read_ns", 0.99)
	vals["phys.write_ns_p50"] = a.quantile("empart_phys_write_ns", 0.50)
	vals["phys.write_ns_p99"] = a.quantile("empart_phys_write_ns", 0.99)
	vals["phys.read_run_blocks_p50"] = a.quantile("empart_phys_read_run_blocks", 0.50)
	vals["phys.write_run_blocks_p50"] = a.quantile("empart_phys_write_run_blocks", 0.50)
	if t := a.hits + a.misses; t > 0 {
		vals["phys.prefetch_hit_ratio"] = float64(a.hits) / float64(t)
	}
	depths := make([]float64, len(a.queue))
	for i, d := range a.queue {
		depths[i] = float64(d)
	}
	vals["phys.write_queue_depth_p95"] = percentile(depths, 0.95)
	vals["phys.retries"] = float64(a.retries)
	vals["uring.sqe_batch_p50"] = a.quantile("empart_uring_sqe_batch", 0.50)
	vals["uring.queue_depth_p95"] = a.quantile("empart_uring_queue_depth", 0.95)
}

// procMetrics reports the medians of what the process spent per call.
func procMetrics(ps []procDelta, vals map[string]float64) {
	pick := func(f func(procDelta) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	vals["proc.user_s"] = pick(func(p procDelta) float64 { return p.user.Seconds() })
	vals["proc.sys_s"] = pick(func(p procDelta) float64 { return p.sys.Seconds() })
	vals["proc.alloc_mb"] = pick(func(p procDelta) float64 { return float64(p.allocBytes) / (1 << 20) })
	vals["proc.gc_cycles"] = pick(func(p procDelta) float64 { return float64(p.gcs) })
	vals["proc.gc_pause_s"] = pick(func(p procDelta) float64 { return float64(p.pauseNS) / 1e9 })
}

// readProc samples the process counters procDelta differences.
func readProc() procDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u, s := rusage()
	return procDelta{user: u, sys: s, allocBytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (p procDelta) sub(q procDelta) procDelta {
	return procDelta{user: p.user - q.user, sys: p.sys - q.sys, allocBytes: p.allocBytes - q.allocBytes,
		gcs: p.gcs - q.gcs, pauseNS: p.pauseNS - q.pauseNS}
}

// probeScan times one sequential Writer pass and one Reader pass of n
// elements on the workload's own System: the emio stack's cost per block
// when no algorithm runs on top of it.
func probeScan(sys *empart.System, n int) (readNS, writeNS float64, err error) {
	ctx := sys.Ctx()
	f := ctx.Disk().NewFile("bench-probe")
	defer f.Release()
	wr, err := emio.NewWriter(ctx, f)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i := range n {
		wr.Append(empart.Elem{Key: int64(i), Aux: int64(i)})
	}
	if err := wr.Close(); err != nil {
		return 0, 0, fmt.Errorf("probe write: %w", err)
	}
	blocks := float64(f.NumBlocks())
	writeNS = float64(time.Since(t0).Nanoseconds()) / blocks
	rd, err := emio.NewReader(ctx, f)
	if err != nil {
		return 0, 0, err
	}
	defer rd.Close()
	t0 = time.Now()
	for _, ok := rd.Next(); ok; _, ok = rd.Next() {
	}
	if err := rd.Err(); err != nil {
		return 0, 0, fmt.Errorf("probe read: %w", err)
	}
	readNS = float64(time.Since(t0).Nanoseconds()) / blocks
	return readNS, writeNS, nil
}

// sequentialSortIOs is the logical I/O of the sequential Sort on the same
// input and machine. Logical I/O does not depend on the backend, so a
// memory System gives it.
func sequentialSortIOs(cfg empart.Config, elems []empart.Elem) (float64, error) {
	sys, err := empart.New(empart.Config{M: cfg.M, B: cfg.B})
	if err != nil {
		return 0, err
	}
	in := sys.Stage(elems)
	sys.Ctx().SetSeed(algoSeed1, algoSeed2)
	out, err := sys.Sort(in)
	if err != nil {
		return 0, fmt.Errorf("sequential sort: %w", err)
	}
	out.Release()
	return float64(sys.Stats().Total()), nil
}

func sumInts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanNode is one span read back from the OTLP document.
type spanNode struct {
	name       string
	start, end int64 // unix nanoseconds
	ios, files int64
	children   []*spanNode
}

func (s *spanNode) dur() int64 { return s.end - s.start }

// self is the span's duration minus the part of it its children cover.
// Children of the parallel engine run concurrently, so covered time is the
// union of their intervals.
func (s *spanNode) self() int64 {
	iv := make([][2]int64, 0, len(s.children))
	for _, ch := range s.children {
		iv = append(iv, [2]int64{max(ch.start, s.start), min(ch.end, s.end)})
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var covered, hi int64 = 0, s.start
	for _, v := range iv {
		lo := max(v[0], hi)
		if v[1] > lo {
			covered += v[1] - lo
			hi = v[1]
		}
	}
	return s.dur() - covered
}

// selfIOs is the span's I/O minus its children's.
func (s *spanNode) selfIOs() int64 {
	io := s.ios
	for _, ch := range s.children {
		io -= ch.ios
	}
	return max(io, 0)
}

// parseOTLP reads the span forest back from an OTLP/JSON trace document.
func parseOTLP(doc []byte) ([]*spanNode, error) {
	var req struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					SpanID     string `json:"spanId"`
					Parent     string `json:"parentSpanId"`
					Name       string `json:"name"`
					Start      string `json:"startTimeUnixNano"`
					End        string `json:"endTimeUnixNano"`
					Attributes []struct {
						Key   string `json:"key"`
						Value struct {
							Int string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(doc, &req); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	byID := map[string]*spanNode{}
	var order []string
	parents := map[string]string{}
	for _, rs := range req.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				n := &spanNode{name: sp.Name}
				n.start, _ = strconv.ParseInt(sp.Start, 10, 64)
				n.end, _ = strconv.ParseInt(sp.End, 10, 64)
				for _, a := range sp.Attributes {
					switch a.Key {
					case "empart.ios":
						n.ios, _ = strconv.ParseInt(a.Value.Int, 10, 64)
					case "empart.files_created":
						n.files, _ = strconv.ParseInt(a.Value.Int, 10, 64)
					}
				}
				byID[sp.SpanID] = n
				parents[sp.SpanID] = sp.Parent
				order = append(order, sp.SpanID)
			}
		}
	}
	var roots []*spanNode
	for _, id := range order {
		n := byID[id]
		if p := byID[parents[id]]; p != nil {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots, nil
}

// moduleOf is the package prefix of a span name: "msel/base-case" → "msel".
func moduleOf(name string) string {
	mod, _, _ := strings.Cut(name, "/")
	return mod
}

// spanMetrics computes the algorithm-module and empar metrics, per call,
// from the spans under the traced calls' bench/op spans.
func spanMetrics(roots []*spanNode, calls float64, workers int, vals map[string]float64) {
	selfByName := map[string]int64{}
	durByName := map[string]int64{}
	selfByMod := map[string]int64{}
	iosByMod := map[string]int64{}
	var spans, files, idle int64
	var walk func(s *spanNode)
	walk = func(s *spanNode) {
		spans++
		self := s.self()
		selfByName[s.name] += self
		durByName[s.name] += s.dur()
		selfByMod[moduleOf(s.name)] += self
		iosByMod[moduleOf(s.name)] += s.selfIOs()
		switch s.name {
		case "empar/sample", "empar/runs", "empar/range-merge":
			var shardWall int64
			for _, ch := range s.children {
				if strings.HasPrefix(ch.name, "empar/shard-") {
					shardWall += ch.dur()
				}
			}
			idle += max(0, int64(workers)*s.dur()-shardWall)
		}
		for _, ch := range s.children {
			walk(ch)
		}
	}
	for _, r := range roots {
		if r.name != "bench/op" {
			continue
		}
		files += r.files
		for _, ch := range r.children {
			walk(ch)
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 / calls }
	vals["telemetry.spans"] = float64(spans) / calls
	vals["emio.scratch_files"] = float64(files) / calls
	vals["extsort.form_runs_s"] = secs(selfByName["extsort/form-runs"])
	vals["extsort.merge_pass_s"] = secs(selfByName["extsort/merge-pass"])
	vals["core.self_s"] = secs(selfByMod["core"])
	vals["msel.base_case_s"] = secs(selfByName["msel/base-case"])
	vals["msel.self_s"] = secs(selfByMod["msel"])
	vals["mpart.sample_s"] = secs(selfByName["mpart/sample"])
	vals["mpart.scatter_s"] = secs(selfByName["mpart/scatter"])
	vals["mpart.route_s"] = secs(selfByName["mpart/route"])
	vals["approxsplit.self_s"] = secs(selfByMod["approxsplit"])
	for _, mod := range []string{"extsort", "core", "msel", "mpart", "approxsplit"} {
		vals[mod+".ios"] = float64(iosByMod[mod]) / calls
	}
	vals["empar.sample_s"] = secs(durByName["empar/sample"])
	vals["empar.runs_s"] = secs(durByName["empar/runs"])
	vals["empar.range_merge_s"] = secs(durByName["empar/range-merge"])
	vals["empar.assemble_s"] = secs(durByName["empar/assemble"])
	vals["empar.barrier_idle_s"] = secs(idle)
}
