package empart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// The golden-output suite pins, for seeded calls of the algorithms whose
// inner loops classify elements against sorted splitters (mpart's scatter,
// approxsplit's bucket count, msel's base case, distsort's scatter and the
// splitter padding scan), the exact outputs, logical Stats, peak memory
// charge and trace JSON. The values were recorded with the reference
// classifier (sort.Search over emio.Less). Any CPU-side change to those
// loops must reproduce them bit for bit: the EM model prices classification
// at zero, so a faster kernel may change wall time and nothing else.

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
	}
}

// goldenWant holds the records of the reference classifier.
var goldenWant = map[string]goldenRecord{
	"partition-hardstripes": {out: 0xe76b66b1174a37e5, trace: 0xd9d5f60f19bceda3, reads: 11448, writes: 7436, peak: 2001},
	"multiselect-zipf":      {out: 0xe6c5320fad52e62c, trace: 0x2860ab2bc3faa687, reads: 23752, writes: 13067, peak: 1024},
	"splitters-right":       {out: 0x2ed4deaa261684c8, trace: 0x6295d6e5366bdf67, reads: 1562, writes: 1069, peak: 1019},
	"splitters-left-padded": {out: 0xd59cfb5d109488b4, trace: 0x8bbe2bfc8fc2515b, reads: 21211, writes: 10848, peak: 1024},
	"distsort-uniform":      {out: 0x32cec8843b912e3f, trace: 0x7e6d3a979eb538b9, reads: 19551, writes: 11350, peak: 1024},
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
