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
// With -workers N each run is sorted in memory on N goroutines: less wall
// clock, and the same output, I/O cost and trace as without it. With
// -metrics-addr the job serves live Prometheus metrics and pprof while it
// runs; with -progress it streams phase/ETA lines to the report stream.
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
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	empart "repro"
	"repro/internal/cli"
	"repro/internal/extsort"
	"repro/internal/verify"
)

var (
	flagIn       = flag.String("in", "", "input file of integers (default stdin)")
	flagOut      = flag.String("out", "", "output file (default stdout)")
	flagJournal  = flag.String("journal", "", "checkpoint journal path: make the sort crash-safe, resumable with -resume (needs -backing)")
	flagResume   = flag.Bool("resume", false, "resume a crashed job from -journal instead of starting fresh")
	flagFullSync = flag.Bool("full-sync", false, "power-loss durability: fsync backing file and journal at every phase barrier (default journaling never fsyncs — it survives process crashes like SIGKILL and OOM at near-zero overhead, but not a power cut)")
	flagCrashW   = flag.Int64("crash-after-write", 0, "SIGKILL self at this positive physical write op (crash-harness hook; counted after staging; 0 disarms)")
	shared       = cli.Register(flag.CommandLine, true)
)

// runOpts carries one emsort invocation.
type runOpts struct {
	cli.Flags
	journal    string
	resume     bool
	fullSync   bool
	crashWrite int64
}

func main() {
	shared.Main("emsort", func() error {
		in := io.Reader(os.Stdin)
		if *flagIn != "" {
			f, err := os.Open(*flagIn)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		o := runOpts{
			Flags:      *shared,
			journal:    *flagJournal,
			resume:     *flagResume,
			fullSync:   *flagFullSync,
			crashWrite: *flagCrashW,
		}
		if *flagOut == "" {
			return run(o, in, os.Stdout, os.Stderr)
		}
		g, err := os.Create(*flagOut)
		if err != nil {
			return err
		}
		if err := run(o, in, g, os.Stderr); err != nil {
			g.Close()
			return err
		}
		return g.Close()
	})
}

// run reads integers from in, sorts them on an EM machine of the given
// configuration (optionally file-backed), writes the sorted keys to dst and
// an I/O report (plus a phase trace when requested) to report. With a
// journal configured it routes through the crash-safe job layer instead.
func run(o runOpts, in io.Reader, dst, report io.Writer) error {
	if o.journal != "" || o.resume {
		return runJob(o, in, dst, report)
	}
	elems, err := parseKeys(in)
	if err != nil {
		return err
	}
	sys, err := o.Open()
	if err != nil {
		return err
	}
	defer sys.Close()
	defer cli.Live(sys)()
	fmt.Fprintf(report, "emsort: host %s\n", o.Host(sys))
	f := sys.Stage(elems)
	return sortReported(sys, o, int64(len(elems)), dst, report, func() (*empart.File, error) {
		return sys.Sort(f)
	})
}

// runJob is the crash-safe path: the sort runs through a checkpoint journal,
// either fresh (-journal) or resumed after a crash (-journal -resume).
func runJob(o runOpts, in io.Reader, dst, report io.Writer) error {
	job, err := empart.OpenSortJob(empart.JobConfig{
		Config:   o.Config(),
		Path:     o.Backing,
		Journal:  o.journal,
		Resume:   o.resume,
		FullSync: o.fullSync,
	}, func() ([]empart.Elem, error) { return parseKeys(in) })
	if err != nil {
		return err
	}
	defer job.Close()
	sys := job.System()
	defer cli.Live(sys)()
	fmt.Fprintf(report, "emsort: host %s\n", o.Host(sys))
	if o.resume {
		runs, lastPass, done := job.Resumable()
		fmt.Fprintf(report, "emsort: resuming from %s: %d completed run(s), last merge pass %d, done=%v\n",
			o.journal, runs, lastPass, done)
	}
	return sortReported(sys, o, job.N(), dst, report, job.Run)
}

// sortReported runs sort, the sort of the n elements staged on sys, with the
// crash hook, tracer and telemetry the options ask for, then verifies and
// writes its output and prints the cost report. A failed sort is annotated
// on the report stream: a cancelled one with the partial I/O cost it had
// paid, a quota-rejected one with live usage.
func sortReported(sys *empart.System, o runOpts, n int64, dst, report io.Writer, sort func() (*empart.File, error)) error {
	armCrash(sys, o)
	sys.ResetStats()
	if o.Trace {
		sys.SetTracer(empart.NewTracer())
	}
	obs, err := o.Observe("emsort", progressTotal(o, n), report)
	if err != nil {
		return err
	}
	obs.Attach(sys)
	out, err := sort()
	obs.Stop()
	if err != nil {
		cli.PartialCost(report, "emsort", sys, err)
		var re *empart.ResourceError
		if errors.As(err, &re) && sys.DiskBudget() > 0 {
			fmt.Fprintf(report, "emsort: disk budget %d bytes, %d in use at failure\n",
				sys.DiskBudget(), sys.DiskBytes())
		}
		return err
	}
	return emit(sys, o, n, out, dst, report)
}

// progressTotal is the logical I/O the progress line counts toward: the
// exact cost of a fresh sort of n elements at any worker count, or 0 (no
// percentage or ETA) where it is not known upfront, because a disk budget
// may narrow the merge fan-in or a resumed job skips its completed phases.
func progressTotal(o runOpts, n int64) int64 {
	if o.DiskBudget > 0 || o.resume {
		return 0
	}
	return extsort.Cost(n, o.M, o.B)
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
		n, o.M, o.B, st, mc.Sort(n), mc.SortFloor(n))
	if o.Trace {
		fmt.Fprintf(report, "phase trace:\n%s", sys.Tracer().Render())
	}
	return nil
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
