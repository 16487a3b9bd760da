package empart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// The golden-output suite pins, for seeded facade calls, the exact outputs,
// logical Stats, peak memory charge and trace JSON. The calls cover the
// scans every algorithm is built from: the classify loops (the
// distributions into buckets, the bucket counts, msel's base case and the
// splitter padding scan), the copies that concatenate pieces (the §3
// re-chunking, the right-grounded partition's tail, multi-partition's
// boundary-free buckets) and the merge passes of Sort, with and without a
// disk budget. The classify records were taken with the reference
// classifier (sort.Search over emio.Less), the others before those scans
// moved into package emio. Any CPU-side change to these loops must
// reproduce them bit for bit: the EM model prices in-memory work at zero, so
// a faster loop may change wall time and nothing else.

type goldenCase struct {
	name string
	kind workload.Kind
	n    int
	cfg  Config
	run  func(t *testing.T, sys *System, f *File) ([]Elem, []int64)
}

// goldenRecord is what a case pins: FNV-1a digests of the output elements
// (and partition sizes) and of the trace JSON, the logical I/O counters and
// the accountant's peak charge.
type goldenRecord struct {
	out    uint64
	trace  uint64
	reads  int64
	writes int64
	peak   int64
}

func (g goldenRecord) String() string {
	return fmt.Sprintf("{out: %#x, trace: %#x, reads: %d, writes: %d, peak: %d}",
		g.out, g.trace, g.reads, g.writes, g.peak)
}

func goldenCases() []goldenCase {
	readOut := func(t *testing.T, sys *System, out *File, err error) []Elem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		elems := sys.Read(out)
		out.Release()
		return elems
	}
	return []goldenCase{
		{"partition-hardstripes", workload.HardStripes, 1 << 16, Config{M: 1 << 11, B: 1 << 5},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				n := f.Len()
				res, err := sys.Partition(f, Params{K: 64, A: n / 128, B: n / 32})
				if err != nil {
					t.Fatal(err)
				}
				return readOut(t, sys, res.Data, nil), res.Sizes
			}},
		{"multiselect-zipf", workload.ZipfLike, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				ranks := make([]int64, 48)
				for i := range ranks {
					ranks[i] = int64(i+1) * f.Len() / 49
				}
				out, err := sys.MultiSelect(f, ranks)
				return readOut(t, sys, out, err), nil
			}},
		{"splitters-right", workload.Uniform, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.Splitters(f, Params{K: 64, A: 64, B: f.Len()})
				return readOut(t, sys, out, err), nil
			}},
		// K' = ceil(N/b) = 19 selected splitters leave 45 to pad: a count
		// that is no multiple of the classifier's batch size.
		{"splitters-left-padded", workload.Uniform, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.Splitters(f, Params{K: 64, A: 0, B: 1725})
				return readOut(t, sys, out, err), nil
			}},
		{"distsort-uniform", workload.Uniform, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.DistributionSort(f)
				return readOut(t, sys, out, err), nil
			}},
		// 147 runs of 224 elements merge in three passes of fan 11.
		{"sort-uniform", workload.Uniform, 1 << 15, Config{M: 1 << 8, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.Sort(f)
				return readOut(t, sys, out, err), nil
			}},
		// A budget of 1,041 blocks narrows the consuming merge's fan from 26,
		// and 18 runs still merge in two passes.
		{"sort-disk-budget", workload.Uniform, 1 << 14, Config{M: 1 << 10, B: 1 << 5, DiskBudget: 1041 * 32 * 16},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.Sort(f)
				return readOut(t, sys, out, err), nil
			}},
		// The bucket uppers as elements and the counts as sizes.
		{"histogram-zipf", workload.ZipfLike, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				hist, err := sys.EquiDepthHistogram(f, 16, 0.5, 1)
				if err != nil {
					t.Fatal(err)
				}
				uppers, counts := make([]Elem, len(hist)), make([]int64, len(hist))
				for i, b := range hist {
					uppers[i], counts[i] = b.Upper, b.Count
				}
				return uppers, counts
			}},
		// The §3 reduction: approximate partitioning, then the re-chunking
		// pass.
		{"precise-uniform", workload.Uniform, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				out, err := sys.PrecisePartition(f, 1000)
				return readOut(t, sys, out, err), nil
			}},
		{"partition-right", workload.Uniform, 1 << 15, Config{M: 1 << 10, B: 1 << 4},
			func(t *testing.T, sys *System, f *File) ([]Elem, []int64) {
				res, err := sys.Partition(f, Params{K: 64, A: 256, B: f.Len()})
				if err != nil {
					t.Fatal(err)
				}
				return readOut(t, sys, res.Data, nil), res.Sizes
			}},
	}
}

// goldenWant holds the records of the reference classifier.
var goldenWant = map[string]goldenRecord{
	"partition-hardstripes": {out: 0xe76b66b1174a37e5, trace: 0xd9d5f60f19bceda3, reads: 11448, writes: 7436, peak: 2001},
	"multiselect-zipf":      {out: 0xe6c5320fad52e62c, trace: 0x2860ab2bc3faa687, reads: 23752, writes: 13067, peak: 1024},
	"splitters-right":       {out: 0x2ed4deaa261684c8, trace: 0x6295d6e5366bdf67, reads: 1562, writes: 1069, peak: 1019},
	"splitters-left-padded": {out: 0xd59cfb5d109488b4, trace: 0x8bbe2bfc8fc2515b, reads: 21211, writes: 10848, peak: 1024},
	"distsort-uniform":      {out: 0x32cec8843b912e3f, trace: 0x7e6d3a979eb538b9, reads: 19551, writes: 11350, peak: 1024},
	"sort-uniform":          {out: 0x32cec8843b912e3f, trace: 0x6c6a29a5bd10a9bb, reads: 8192, writes: 8192, peak: 240},
	"sort-disk-budget":      {out: 0x1747ed6a8800c6ca, trace: 0x3090506577e4c827, reads: 1536, writes: 1536, peak: 992},
	"histogram-zipf":        {out: 0x355bc8c918617a4a, trace: 0xdc77abcfa7bd1f00, reads: 22310, writes: 10008, peak: 1024},
	"precise-uniform":       {out: 0xc974cdd53a25b4d7, trace: 0x19f502901b386de1, reads: 31230, writes: 23974, peak: 1003},
	"partition-right":       {out: 0x27a06707b183d0cb, trace: 0xf9b87750d8db6032, reads: 13203, writes: 11594, peak: 1003},
}

func runGolden(t *testing.T, c goldenCase) goldenRecord {
	t.Helper()
	sys, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	f := sys.Stage(workload.Elems(c.kind, c.n, c.cfg.B, 7))
	sys.ResetStats()
	sys.SetTracer(NewTracer())
	elems, sizes := c.run(t, sys, f)
	trace, err := sys.Tracer().JSON()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if leaks := sys.LiveScratchFiles(); len(leaks) != 0 {
		t.Fatalf("leaked scratch files: %v", leaks)
	}
	h := fnv.New64a()
	var w [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, e := range elems {
		put(e.Key)
		put(e.Aux)
	}
	for _, s := range sizes {
		put(s)
	}
	th := fnv.New64a()
	th.Write(trace)
	st := sys.Stats()
	return goldenRecord{out: h.Sum64(), trace: th.Sum64(), reads: st.Reads, writes: st.Writes, peak: sys.PeakMemory()}
}

func TestGoldenOutputs(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			got := runGolden(t, c)
			want, ok := goldenWant[c.name]
			if !ok {
				t.Fatalf("no golden record; got %q: %v", c.name, got)
			}
			if got != want {
				t.Errorf("got  %v\nwant %v", got, want)
			}
		})
	}
}
