package main

import (
	"math/rand/v2"

	"repro"
	gen "repro/internal/workload"
)

// workload is one named input, machine and backend, and the library calls
// one pass of the closed-loop client makes against the staged input.
type workload struct {
	name, why string
	kind      gen.Kind      // input distribution
	n, quickN int           // input elements, normal and -quick
	cfg       empart.Config // machine, workers and pipeline
	file      bool          // backing file under the run directory, else memory
	metrics   bool          // a metrics registry is attached in the untraced pass
	sorted    bool          // the checks need a sorted copy of the input
	procs     int           // GOMAXPROCS while the workload runs; 0 leaves the process's (nproc)
	calls     func(n int64, seed uint64) []call
}

// call is one library call: run makes it, check verifies its output against
// the oracle, and ub is the internal/bounds formula for its logical I/O.
type call struct {
	run   func(*empart.System, *empart.File) (*empart.File, []int64, error)
	check func(o *oracle, data []empart.Elem, sizes []int64) error
	ub    func(empart.Machine) float64
}

// directRing is the closest-to-device backend: O_DIRECT backing file, the
// prefetch/write-behind pipeline, and transfers submitted through io_uring.
var directRing = empart.Pipeline{Enabled: true, Direct: true, Uring: true}

// The memory workloads make sequential calls that start no goroutine, so
// they run with one P. On a 2-vCPU VM a second P made their calls about 20%
// slower and the spread of run medians over ten seeds about twice as wide,
// most likely from the runtime's background work beside the call.
const sequentialProcs = 1

var workloads = []*workload{
	{
		name: "sort-direct",
		why:  "Sort on O_DIRECT + io_uring: physical I/O and the per-block emio path do most of the work, with equal reads and writes",
		kind: gen.Uniform, n: 1 << 22, quickN: 1 << 14,
		cfg:   empart.Config{M: 1 << 12, B: 1 << 5, Pipeline: directRing},
		file:  true,
		calls: sortCalls,
	},
	{
		name: "splitters-query",
		why:  "a stream of sublinear right-grounded Splitters queries on one file: fixed cost per call, random reads, in-memory selection",
		kind: gen.Uniform, n: 1 << 23, quickN: 1 << 16,
		cfg:    empart.Config{M: 1 << 16, B: 1 << 8, Pipeline: empart.Pipeline{Enabled: true}},
		file:   true,
		sorted: true,
		calls:  splitterCalls,
	},
	{
		name: "partition-hard",
		why:  "two-sided Partition of the paper's hard input family in memory: the algorithm layers work, with no physical I/O",
		kind: gen.HardStripes, n: 1 << 23, quickN: 1 << 15,
		cfg:   empart.Config{M: 1 << 16, B: 1 << 8},
		procs: sequentialProcs,
		calls: partitionCalls,
	},
	{
		name: "percentiles-metrics",
		why:  "MultiSelect of 64 ranks with a metrics registry attached: the always-on telemetry path at 1.5M logical I/Os per call",
		kind: gen.ZipfLike, n: 1 << 22, quickN: 1 << 14,
		cfg:     empart.Config{M: 1 << 12, B: 1 << 5},
		metrics: true,
		sorted:  true,
		procs:   sequentialProcs,
		calls:   percentileCalls,
	},
	{
		name: "sort-par2-direct",
		why:  "Sort on the parallel engine with two workers on O_DIRECT + io_uring: exercises empar's sharded phases",
		kind: gen.Uniform, n: 1 << 22, quickN: 1 << 14,
		cfg:   empart.Config{M: 1 << 16, B: 1 << 8, Workers: 2, Pipeline: directRing},
		file:  true,
		calls: sortCalls,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) size(quick bool) int {
	if quick {
		return w.quickN
	}
	return w.n
}

func sortCalls(n int64, _ uint64) []call {
	return []call{{
		run: func(sys *empart.System, in *empart.File) (*empart.File, []int64, error) {
			out, err := sys.Sort(in)
			return out, nil, err
		},
		check: func(o *oracle, data []empart.Elem, _ []int64) error { return checkSorted(o, data) },
		ub:    func(m empart.Machine) float64 { return m.Sort(n) },
	}}
}

// partitionCalls asks for K = 256 parts of N/512 to N/128 elements, so both
// size limits bind (the two-sided regime of Theorem 6).
func partitionCalls(n int64, _ uint64) []call {
	k, a, b := int64(256), n/512, n/128
	return []call{{
		run: func(sys *empart.System, in *empart.File) (*empart.File, []int64, error) {
			res, err := sys.Partition(in, empart.Params{K: k, A: a, B: b})
			if err != nil {
				return nil, nil, err
			}
			return res.Data, res.Sizes, nil
		},
		check: func(o *oracle, data []empart.Elem, sizes []int64) error {
			return checkPartition(o, data, sizes, k, a, b)
		},
		ub: func(m empart.Machine) float64 { return m.PartitionTwoSidedUB(n, k, a, b) },
	}}
}

// percentileCalls selects the 64 ranks i·N/65, i = 1..64.
func percentileCalls(n int64, _ uint64) []call {
	ranks := make([]int64, 64)
	for i := range ranks {
		ranks[i] = int64(i+1) * n / 65
	}
	return []call{{
		run: func(sys *empart.System, in *empart.File) (*empart.File, []int64, error) {
			out, err := sys.MultiSelect(in, ranks)
			return out, nil, err
		},
		check: func(o *oracle, data []empart.Elem, _ []int64) error { return checkSelected(o, data, ranks) },
		ub:    func(m empart.Machine) float64 { return m.MultiSelect(n, int64(len(ranks))) },
	}}
}

// splitterCalls is the query deck: every K in {16, 32, ..., 1024} with every
// a in {1, 2, ..., 64} and b = N, 49 right-grounded queries in an order drawn
// from the seed. The mix itself is fixed, so logical I/O per query does not
// depend on the seed and a change in it always means the program changed.
func splitterCalls(n int64, seed uint64) []call {
	var deck []call
	for k := int64(16); k <= 1024; k *= 2 {
		for a := int64(1); a <= 64; a *= 2 {
			p := empart.Params{K: k, A: a, B: n}
			deck = append(deck, call{
				run: func(sys *empart.System, in *empart.File) (*empart.File, []int64, error) {
					out, err := sys.Splitters(in, p)
					return out, nil, err
				},
				check: func(o *oracle, data []empart.Elem, _ []int64) error {
					return checkSplitters(o, data, p.K, p.A, p.B)
				},
				ub: func(m empart.Machine) float64 { return m.SplittersRight(p.A, p.K) },
			})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}
