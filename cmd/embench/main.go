// Command embench regenerates the paper's evaluation — Table 1 and the
// companion results — as markdown tables: for every row it sweeps the
// relevant parameter on the simulated EM machine, measures real block I/Os,
// and prints them next to the paper's formula (upper bound) and the
// information-theoretic floor (lower bound). The output is what
// EXPERIMENTS.md records.
//
// Usage:
//
//	embench [-n 262144] [-m 4096] [-b 32] [-dist uniform] [-quick] [-json] [-trace]
//	        [-metrics-addr HOST:PORT] [-progress D] [-cpuprofile FILE]
//
// Every row runs on the in-memory disk. Its columns are logical I/O, which is
// the same on every backend; wall-clock measurement is the benchmark's job
// (bench/, run with `bash bench/run.sh`). SIGINT/SIGTERM cancels the
// measurement in flight and exits nonzero; a second signal exits immediately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	empart "repro"
	"repro/internal/cli"
	"repro/internal/emio"
	"repro/internal/imcomp"
	"repro/internal/intermix"
	"repro/internal/workload"
)

var (
	flagN     = flag.Int("n", 1<<18, "input size N in elements")
	flagQuick = flag.Bool("quick", false, "smaller N for a fast smoke run")
	flagDist  = flag.String("dist", "uniform", "input distribution (see internal/workload)")
	flagJSON  = flag.Bool("json", false, "emit one JSON array of measurement rows instead of markdown")
	flagProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	shared    = cli.Register(flag.CommandLine, false)
)

// observers, when non-nil, watch the whole sweep: every benchmark System
// attaches to their one metrics registry, so one scrape endpoint covers the
// sweep (registration is idempotent; counters accumulate across systems).
var observers *cli.Observers

func main() {
	shared.Main("embench", func() error {
		if *flagProf != "" {
			pf, err := os.Create(*flagProf)
			if err != nil {
				return err
			}
			defer pf.Close()
			if err := pprof.StartCPUProfile(pf); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		var err error
		if observers, err = shared.Observe("embench", 0, os.Stderr); err != nil {
			return err
		}
		defer observers.Stop()
		if err := table1(os.Stdout, flagOptions()); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "embench: done")
		return nil
	})
}

// options are one sweep's machine (M, B), input size and distribution, and
// output form.
type options struct {
	n, m, b     int
	dist        string
	json, trace bool
}

// quickN is the input size of a -quick run.
const quickN = 1 << 15

// flagOptions reads a sweep's options from the command line.
func flagOptions() options {
	o := options{n: *flagN, m: shared.M, b: shared.B, dist: *flagDist, json: *flagJSON, trace: shared.Trace}
	if *flagQuick {
		o.n = quickN
	}
	return o
}

// row is one measurement: the logical I/Os of one call, in scans of its
// input, and their ratios to the upper-bound formula and the lower-bound
// floor (omitted where a section has none).
type row struct {
	Section string  `json:"section,omitempty"`
	Label   string  `json:"label"`
	IOs     int64   `json:"ios"`
	Scans   float64 `json:"scans"`
	UB      float64 `json:"ub,omitempty"`
	LB      float64 `json:"lb,omitempty"`
	RatioUB float64 `json:"ratioUB,omitempty"`
	RatioLB float64 `json:"ratioLB,omitempty"`
}

// table1 runs the sweep and writes it to w: markdown tables, or with o.json
// one JSON array of every row. The markdown-only IM-PARITY section counts
// comparisons, not I/Os, and has no rows.
func table1(w io.Writer, o options) error {
	cfg := empart.Config{M: o.m, B: o.b}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if o.n < 0 {
		return fmt.Errorf("-n %d: the input size must be nonnegative", o.n)
	}
	kind, err := workload.KindByName(o.dist)
	if err != nil {
		return err
	}
	s := &sweep{o: o, w: w, kind: kind, cfg: cfg, n: int64(o.n), mc: empart.Machine{M: int64(o.m), B: int64(o.b)}}
	s.md("# Table 1 reproduction — N=%d, M=%d, B=%d, dist=%s\n\n", s.n, o.m, o.b, kind)
	s.md("One scan = %.0f I/Os. `ratioUB` is measured/upper-bound-formula (the fitted\n", float64(s.n)/float64(o.b))
	s.md("constant; flat across a sweep = the formula captures the shape). `ratioLB` is\n")
	s.md("measured/lower-bound-floor (must stay >= 1; O(1) = the algorithm is optimal).\n\n")
	for _, section := range []func(){
		s.splittersRight, s.splittersLeft, s.splittersTwoSided,
		s.partitionRight, s.partitionLeft, s.partitionTwoSided,
		s.thm4Sep, s.sortBase, s.intermix, s.red3, s.machineSweep, s.imParity,
	} {
		section()
		if s.err != nil {
			return s.err
		}
	}
	if !o.json {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.rows)
}

// sweep carries one run of table1: its parameters, the rows so far and the
// first error, after which every measurement is skipped.
type sweep struct {
	o    options
	w    io.Writer
	kind workload.Kind
	cfg  empart.Config
	mc   empart.Machine
	n    int64
	rows []row
	err  error
}

// call is one measured facade call on a staged input.
type call func(sys *empart.System, f *empart.File) error

// release drops an algorithm's output, passing its error through.
func release[T interface{ Release() }](out T, err error) error {
	if err != nil {
		return err
	}
	out.Release()
	return nil
}

func splitters(p empart.Params) call {
	return func(sys *empart.System, f *empart.File) error { return release(sys.Splitters(f, p)) }
}

func partition(p empart.Params) call {
	return func(sys *empart.System, f *empart.File) error { return release(sys.Partition(f, p)) }
}

func sortCall(sys *empart.System, f *empart.File) error { return release(sys.Sort(f)) }

// md writes markdown; it is silent under -json.
func (s *sweep) md(format string, args ...any) {
	if !s.o.json {
		fmt.Fprintf(s.w, format, args...)
	}
}

// ios stages nn elements drawn with seed on a fresh in-memory System of
// config cfg, runs c on them and returns the logical I/O it did.
func (s *sweep) ios(label string, cfg empart.Config, nn int64, seed uint64, c call) int64 {
	if s.err != nil {
		return 0
	}
	sys, err := empart.New(cfg)
	if err != nil {
		s.err = fmt.Errorf("%s: %w", label, err)
		return 0
	}
	observers.Attach(sys)
	defer cli.Live(sys)()
	f := sys.Stage(workload.Elems(s.kind, int(nn), cfg.B, seed))
	sys.ResetStats()
	if s.o.trace {
		sys.SetTracer(empart.NewTracer())
	}
	if err := c(sys, f); err != nil {
		s.err = fmt.Errorf("%s: %w", label, err)
		return 0
	}
	if s.o.trace {
		fmt.Fprintf(os.Stderr, "--- trace %s ---\n%s", label, sys.Tracer().Render())
	}
	return sys.Stats().Total()
}

// measure runs c on nn elements of the sweep's machine and returns its row
// against the formula ub and the floor lb (0 = none).
func (s *sweep) measure(label string, nn int64, ub, lb float64, c call) row {
	io := s.ios(label, s.cfg, nn, 0xeb1e55, c)
	r := row{Label: label, IOs: io, Scans: float64(io) / (float64(nn) / float64(s.o.b)), UB: ub, LB: lb}
	if ub > 0 {
		r.RatioUB = float64(io) / ub
	}
	if lb > 0 {
		r.RatioLB = float64(io) / lb
	}
	return r
}

// table records rows under title and prints them as one markdown table.
func (s *sweep) table(title, paramCol string, rows []row) {
	for _, r := range rows {
		r.Section = title
		s.rows = append(s.rows, r)
	}
	s.md("## %s\n\n", title)
	s.md("| %s | I/Os | scans | UB formula | ratioUB | LB floor | ratioLB |\n", paramCol)
	s.md("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		s.md("| %s | %d | %.3f | %.0f | %.2f | %.0f | %.2f |\n",
			r.Label, r.IOs, r.Scans, r.UB, r.RatioUB, r.LB, r.RatioLB)
	}
	s.md("\n")
}

// splittersRight is T1-R-SPL.
func (s *sweep) splittersRight() {
	n, k := s.n, int64(64)
	var rows []row
	seen := map[int64]bool{}
	for _, a := range []int64{2, 8, 32, 128, 512, 2048, n / k} {
		if a > n/k || seen[a] {
			continue
		}
		seen[a] = true
		rows = append(rows, s.measure(fmt.Sprintf("a=%d", a), n,
			s.mc.SplittersRight(a, k), s.mc.RightSplittersFloor(a, k),
			splitters(empart.Params{K: k, A: a, B: n})))
	}
	s.table(fmt.Sprintf("T1-R-SPL: right-grounded K-splitters (K=%d, b=N) — sublinear for small a", k), "a", rows)
}

// splittersLeft is T1-L-SPL.
func (s *sweep) splittersLeft() {
	n, k := s.n, int64(64)
	var rows []row
	for _, bb := range []int64{n / 64, n / 16, n / 4, n / 2} {
		rows = append(rows, s.measure(fmt.Sprintf("b=N/%d", n/bb), n,
			s.mc.SplittersLeft(n, bb), s.mc.LeftSplittersFloor(n, bb),
			splitters(empart.Params{K: k, A: 0, B: bb})))
	}
	s.table(fmt.Sprintf("T1-L-SPL: left-grounded K-splitters (K=%d, a=0)", k), "b", rows)
}

// splittersTwoSided is T1-2-SPL.
func (s *sweep) splittersTwoSided() {
	n, k := s.n, int64(64)
	nk := n / k
	var rows []row
	for _, tc := range []struct{ a, b int64 }{
		{nk, nk}, {nk / 8, nk * 4}, {4, n / 4}, {nk / 2, n / 2},
	} {
		rows = append(rows, s.measure(fmt.Sprintf("a=%d b=%d", tc.a, tc.b), n,
			s.mc.SplittersTwoSidedUB(n, k, tc.a, tc.b), s.mc.SplittersTwoSidedLB(n, k, tc.a, tc.b),
			splitters(empart.Params{K: k, A: tc.a, B: tc.b})))
	}
	s.table(fmt.Sprintf("T1-2-SPL: two-sided K-splitters (K=%d)", k), "a, b", rows)
}

// partitionRight is T1-R-PAR.
func (s *sweep) partitionRight() {
	n, k := s.n, int64(64)
	var rows []row
	seen := map[int64]bool{}
	for _, a := range []int64{0, 16, 256, 2048, n / k} {
		if a > n/k || seen[a] {
			continue
		}
		seen[a] = true
		rows = append(rows, s.measure(fmt.Sprintf("a=%d", a), n,
			s.mc.PartitionRightUB(n, k, a), s.mc.PartitionRightLB(n),
			partition(empart.Params{K: k, A: a, B: n})))
	}
	s.table(fmt.Sprintf("T1-R-PAR: right-grounded K-partitioning (K=%d, b=N)", k), "a", rows)
}

// partitionLeft is T1-L-PAR and its K-independence sweep.
func (s *sweep) partitionLeft() {
	n := s.n
	var rows []row
	for _, bb := range []int64{n / 256, n / 64, n / 16, n / 4, n / 2} {
		rows = append(rows, s.measure(fmt.Sprintf("b=N/%d", n/bb), n,
			s.mc.PartitionLeft(n, bb), s.mc.PartitionLeft(n, bb),
			partition(empart.Params{K: 256, A: 0, B: bb})))
	}
	s.table("T1-L-PAR: left-grounded K-partitioning (K=256, a=0) — Θ matches, so LB floor = UB formula", "b", rows)

	// K-independence sweep: K must satisfy K >= N/b = 8 and divide N.
	var flat []row
	for _, k := range []int64{8, 64, 256, 4096} {
		flat = append(flat, s.measure(fmt.Sprintf("K=%d", k), n,
			s.mc.PartitionLeft(n, n/8), 0,
			partition(empart.Params{K: k, A: 0, B: n / 8})))
	}
	s.table("T1-L-PAR flatness: cost is independent of K at fixed b=N/8 (Theorem 3)", "K", flat)
}

// partitionTwoSided is T1-2-PAR.
func (s *sweep) partitionTwoSided() {
	n, k := s.n, int64(64)
	nk := n / k
	var rows []row
	for _, tc := range []struct{ a, b int64 }{
		{nk, nk}, {nk / 8, nk * 4}, {4, n / 4},
	} {
		rows = append(rows, s.measure(fmt.Sprintf("a=%d b=%d", tc.a, tc.b), n,
			s.mc.PartitionTwoSidedUB(n, k, tc.a, tc.b), s.mc.PartitionTwoSidedLB(n, tc.b),
			partition(empart.Params{K: k, A: tc.a, B: tc.b})))
	}
	s.table(fmt.Sprintf("T1-2-PAR: two-sided K-partitioning (K=%d)", k), "a, b", rows)
}

// thm4Sep is THM4-SEP: multi-selection against multi-partition at the same
// equi-spaced K.
func (s *sweep) thm4Sep() {
	n := s.n
	s.md("## THM4-SEP: multi-selection vs multi-partition (equi-spaced, Theorem 4)\n\n")
	s.md("| K | msel I/Os | msel formula | mpart I/Os | mpart formula | mpart/msel measured | predicted |\n")
	s.md("|---|---|---|---|---|---|---|\n")
	for _, k := range []int64{4, 32, 256, 2048, n / int64(s.o.b)} {
		ranks := make([]int64, k-1)
		sizes := make([]int64, k)
		prev := int64(0)
		for i := int64(0); i < k; i++ {
			cum := (i + 1) * n / k
			if i < k-1 {
				ranks[i] = cum
			}
			sizes[i] = cum - prev
			prev = cum
		}
		ms := s.measure(fmt.Sprintf("msel K=%d", k), n, s.mc.MultiSelect(n, k), 0,
			func(sys *empart.System, f *empart.File) error { return release(sys.MultiSelect(f, ranks)) })
		mp := s.measure(fmt.Sprintf("mpart K=%d", k), n, s.mc.MultiPartition(n, k), 0,
			func(sys *empart.System, f *empart.File) error { return release(sys.MultiPartition(f, sizes)) })
		ms.Section, mp.Section = "THM4-SEP", "THM4-SEP"
		s.rows = append(s.rows, ms, mp)
		s.md("| %d | %d | %.0f | %d | %.0f | %.2f | %.2f |\n",
			k, ms.IOs, ms.UB, mp.IOs, mp.UB, float64(mp.IOs)/float64(ms.IOs), mp.UB/ms.UB)
	}
	s.md("\n")
}

// sortBase is SORT-BASE: external merge sort at three input sizes.
func (s *sweep) sortBase() {
	var rows []row
	for _, nn := range []int64{s.n / 4, s.n, s.n * 2} {
		rows = append(rows, s.measure(fmt.Sprintf("N=%d", nn), nn, s.mc.Sort(nn), s.mc.SortFloor(nn), sortCall))
	}
	s.table("SORT-BASE: external merge sort (the trivial solution to every row)", "N", rows)
}

// intermix is INTERMIX: L-intermixed selection (Lemma 6), run on emio
// directly since the facade does not export it.
func (s *sweep) intermix() {
	n := s.n
	s.md("## INTERMIX: L-intermixed selection is linear (Lemma 6)\n\n")
	s.md("| L | I/Os | scans |\n|---|---|---|\n")
	cfg := emio.Config{M: s.o.m, B: s.o.b}
	for _, l := range []int{1, 2, 4, intermix.MaxGroups(cfg)} {
		if l < 1 {
			continue
		}
		ctx, err := emio.NewCtx(cfg)
		if err != nil {
			s.err = fmt.Errorf("intermix L=%d: %w", l, err)
			return
		}
		elems := workload.Elems(s.kind, int(n), s.o.b, 0x1e7)
		for i := range elems {
			elems[i].Aux = emio.PackAux(int64(i%l), int64(i))
		}
		d := emio.BuildFile(ctx.Disk(), "D", elems)
		targets := make([]int64, l)
		for i := range targets {
			targets[i] = n / int64(l) / 2
		}
		ctx.Disk().ResetStats()
		if s.o.trace {
			ctx.SetTracer(emio.NewTracer())
		}
		res, err := intermix.Select(ctx, d, l, targets)
		if err != nil {
			s.err = fmt.Errorf("intermix L=%d: %w", l, err)
			return
		}
		ctx.FreeElems(res)
		if s.o.trace {
			fmt.Fprintf(os.Stderr, "--- trace intermix L=%d ---\n%s", l, ctx.Tracer().Render())
		}
		io := ctx.Disk().Stats().Total()
		scans := float64(io) / (float64(n) / float64(s.o.b))
		s.rows = append(s.rows, row{Section: "INTERMIX", Label: fmt.Sprintf("L=%d", l), IOs: io, Scans: scans})
		s.md("| %d | %d | %.2f |\n", l, io, scans)
	}
	s.md("\n")
}

// red3 is RED-3: precise partitioning through the §3 reduction.
func (s *sweep) red3() {
	n := s.n
	var rows []row
	for _, bb := range []int64{n / 256, n / 16, n / 4} {
		rows = append(rows, s.measure(fmt.Sprintf("b=N/%d", n/bb), n,
			s.mc.PartitionLeft(n, bb), s.mc.PrecisePartitionFloor(n, n/bb),
			func(sys *empart.System, f *empart.File) error { return release(sys.PrecisePartition(f, bb)) }))
	}
	s.table("RED-3: precise partitioning via the §3 reduction (approx + O(N/B) re-chunk)", "b", rows)
}

// machineSweep is MACHINE-SWEEP: sort and left-grounded partitioning at
// fixed N across machine shapes.
func (s *sweep) machineSweep() {
	n := s.n
	s.md("## MACHINE-SWEEP: the lg_{M/B} base across machine shapes\n\n")
	s.md("Fixed N and problem; varying M/B changes the base of every lg in\n")
	s.md("Table 1. Sorting passes and left-grounded partitioning costs move\n")
	s.md("together, as the shared lg_{M/B} factor predicts.\n\n")
	s.md("| machine | M/B | sort I/Os | sort scans | L-PAR(b=N/64) I/Os | L-PAR scans |\n")
	s.md("|---|---|---|---|---|---|\n")
	for _, shape := range []empart.Config{
		{M: 1 << 10, B: 1 << 7}, // M/B = 8
		{M: 1 << 12, B: 1 << 7}, // M/B = 32
		{M: 1 << 12, B: 1 << 5}, // M/B = 128
		{M: 1 << 14, B: 1 << 5}, // M/B = 512
	} {
		sortLabel, parLabel := fmt.Sprintf("sort %v", shape), fmt.Sprintf("L-PAR %v", shape)
		sortIO := s.ios(sortLabel, shape, n, 0x5eeb, sortCall)
		parIO := s.ios(parLabel, shape, n, 0x5eeb, partition(empart.Params{K: 256, A: 0, B: n / 64}))
		shapeScan := float64(n) / float64(shape.B)
		s.rows = append(s.rows,
			row{Section: "MACHINE-SWEEP", Label: sortLabel, IOs: sortIO, Scans: float64(sortIO) / shapeScan},
			row{Section: "MACHINE-SWEEP", Label: parLabel, IOs: parIO, Scans: float64(parIO) / shapeScan})
		s.md("| %v | %d | %d | %.2f | %d | %.2f |\n",
			shape, shape.M/shape.B, sortIO, float64(sortIO)/shapeScan, parIO, float64(parIO)/shapeScan)
	}
	s.md("\n")
}

// imParity is IM-PARITY: internal-memory comparison counts, markdown only.
func (s *sweep) imParity() {
	if s.o.json {
		return
	}
	n := s.n
	s.md("## IM-PARITY: internal-memory comparison counts (the §1.3 remark)\n\n")
	s.md("In internal memory, multi-selection and multi-partition both take\n")
	s.md("Θ(N lg K) comparisons — the separation exists only in the EM model.\n\n")
	s.md("| K | msel comparisons | mpart comparisons | ratio |\n|---|---|---|---|\n")
	base := workload.Elems(s.kind, int(n), s.o.b, 0x1337)
	for _, k := range []int64{4, 64, 1024} {
		ranks := make([]int64, 0, k-1)
		for i := int64(1); i < k; i++ {
			r := i * n / k
			if len(ranks) == 0 || r > ranks[len(ranks)-1] {
				ranks = append(ranks, r)
			}
		}
		sizes := make([]int64, k)
		prev := int64(0)
		for i := int64(0); i < k; i++ {
			cum := (i + 1) * n / k
			sizes[i] = cum - prev
			prev = cum
		}
		_, cSel, err := imcomp.MultiSelect(append([]emio.Elem(nil), base...), ranks)
		if err != nil {
			s.err = fmt.Errorf("im-parity msel K=%d: %w", k, err)
			return
		}
		cPar, err := imcomp.MultiPartition(append([]emio.Elem(nil), base...), sizes)
		if err != nil {
			s.err = fmt.Errorf("im-parity mpart K=%d: %w", k, err)
			return
		}
		s.md("| %d | %d | %d | %.2f |\n", k, cSel, cPar, float64(cSel)/float64(cPar))
	}
	s.md("\n")
}
