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
//
// With -workers N, -algo sort sorts each of its in-memory runs on N
// goroutines; its output and cost line are the same at every N, and every
// other algorithm ignores -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	empart "repro"
	"repro/internal/cli"
	"repro/internal/verify"
	"repro/internal/workload"
)

var (
	flagAlgo = flag.String("algo", "splitters", "splitters | partition | multiselect | multipartition | precise | sort | histogram")
	flagN    = flag.Int("n", 1<<18, "input size N")
	flagK    = flag.Int64("k", 64, "partition/splitter/rank count K")
	flagA    = flag.Int64("a", 0, "lower size bound a")
	flagBMax = flag.Int64("bmax", 0, "upper size bound b (0 means N)")
	flagDist = flag.String("dist", "uniform", "input distribution")
	flagSeed = flag.Uint64("seed", 1, "workload seed")
	flagLo   = flag.Float64("lo", 0, "histogram: relative slack below N/K")
	flagHi   = flag.Float64("hi", 0, "histogram: relative slack above N/K")
	shared   = cli.Register(flag.CommandLine, true)
)

// options carries one emsplit invocation.
type options struct {
	cli.Flags
	algo        string
	n           int
	k, a        int64
	bmax        int64
	dist        string
	seed        uint64
	lo, hi      float64
	progressOut io.Writer // progress/telemetry stream (main: stderr)
}

func main() {
	shared.Main("emsplit", func() error {
		report, err := execute(options{
			Flags: *shared,
			algo:  *flagAlgo, n: *flagN,
			k: *flagK, a: *flagA, bmax: *flagBMax,
			dist: *flagDist, seed: *flagSeed, lo: *flagLo, hi: *flagHi,
			progressOut: os.Stderr,
		})
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	})
}

// execute runs one algorithm with verification and returns the report text.
func execute(o options) (report string, err error) {
	if o.n < 0 {
		return "", fmt.Errorf("-n %d: the input size must be nonnegative", o.n)
	}
	if o.k < 1 && (o.algo == "multiselect" || o.algo == "multipartition") {
		return "", fmt.Errorf("-k %d: %s needs K >= 1", o.k, o.algo)
	}
	var sb strings.Builder
	tel := o.progressOut
	if tel == nil {
		tel = os.Stderr
	}
	sys, err := o.Open()
	if err != nil {
		return "", err
	}
	// Close flushes the buffered event-log file sink; without it a -log run
	// of the in-memory backend would leave an empty JSONL file.
	defer sys.Close()
	defer cli.Live(sys)()
	defer func() { cli.PartialCost(tel, "emsplit", sys, err) }()
	fmt.Fprintf(&sb, "host: %s\n", o.Host(sys))
	kind, err := workload.KindByName(o.dist)
	if err != nil {
		return "", err
	}
	n := int64(o.n)
	bmax := o.bmax
	if bmax == 0 {
		bmax = n
	}
	in := workload.Elems(kind, o.n, o.B, o.seed)
	f := sys.Stage(in)
	mc := sys.Machine()
	p := empart.Params{K: o.k, A: o.a, B: bmax}

	sys.ResetStats()
	if o.Trace {
		sys.SetTracer(empart.NewTracer())
	}
	obs, err := o.Observe("emsplit", 0, tel)
	if err != nil {
		return "", err
	}
	obs.Attach(sys)
	defer obs.Stop()
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
	scan := float64(n) / float64(o.B)
	fmt.Fprintf(&sb, "machine: %v   input: %s N=%d\n", sys.Config(), kind, n)
	fmt.Fprintf(&sb, "cost: %v  (%.2f scans)\n", st, float64(st.Total())/scan)
	if bound > 0 {
		fmt.Fprintf(&sb, "paper bound: %.0f I/Os -> fitted constant %.2f\n", bound, float64(st.Total())/bound)
	}
	fmt.Fprintf(&sb, "peak memory: %d of M=%d elements\n", sys.PeakMemory(), o.M)
	if o.Trace {
		fmt.Fprintf(&sb, "\nphase trace:\n%s", sys.Tracer().Render())
	}
	return sb.String(), nil
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
