package inmem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// parallelInputs generates the table's inputs of n elements: every workload
// distribution, the int64 extremes in both Key and Aux, and identical
// elements, on which every split degenerates to the same pivot.
func parallelInputs() map[string]func(n int) []emio.Elem {
	in := map[string]func(n int) []emio.Elem{
		"extremes": func(n int) []emio.Elem {
			vals := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
			s := make([]emio.Elem, n)
			for i := range s {
				s[i] = emio.Elem{Key: vals[i%len(vals)], Aux: vals[(i/len(vals))%len(vals)]}
			}
			return s
		},
		"identical": func(n int) []emio.Elem {
			s := make([]emio.Elem, n)
			for i := range s {
				s[i] = emio.Elem{Key: 7, Aux: 7}
			}
			return s
		},
	}
	for _, k := range workload.Kinds() {
		in[k.String()] = func(n int) []emio.Elem { return workload.Elems(k, n, 32, 0x9a7) }
	}
	return in
}

// TestParallelSortMatchesSort holds ParallelSort to Sort on every input,
// around the cutoff and well above it, at every worker count.
func TestParallelSortMatchesSort(t *testing.T) {
	lengths := []int{0, 1, parallelCutoff - 1, parallelCutoff, parallelCutoff + 1, 1 << 16}
	for name, gen := range parallelInputs() {
		for _, n := range lengths {
			in := gen(n)
			want := slices.Clone(in)
			Sort(want)
			for _, w := range []int{0, 1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/n=%d/workers=%d", name, n, w), func(t *testing.T) {
					got := slices.Clone(in)
					ParallelSort(got, w)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
					}
				})
			}
		}
	}
}

// TestParallelSortHookedTranscript arms a compare hook: ParallelSort must
// then make exactly the comparisons of the sequential sort, in order, so the
// transcript tests see the same learned order at every worker count.
func TestParallelSortHookedTranscript(t *testing.T) {
	in := workload.Elems(workload.Uniform, 2*parallelCutoff, 32, 0x7c)
	record := func(sort func([]emio.Elem)) [][2]emio.Elem {
		var got [][2]emio.Elem
		emio.SetCompareHook(func(lo, hi emio.Elem) { got = append(got, [2]emio.Elem{lo, hi}) })
		defer emio.SetCompareHook(nil)
		sort(slices.Clone(in))
		return got
	}
	want := record(Sort)
	got := record(func(s []emio.Elem) { ParallelSort(s, 8) })
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("hooked ParallelSort made %d comparisons, want the sequential sort's %d, in order", len(got), len(want))
	}
}

// FuzzParallelSort sorts n elements cut from the fuzzer's bytes, 16 to an
// element and repeated as needed, so inputs reach the cutoff and splits meet
// whatever duplicates and extremes the bytes hold.
func FuzzParallelSort(f *testing.F) {
	f.Add([]byte{}, uint16(parallelCutoff), uint8(2))
	f.Add([]byte("0123456789abcdef\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x80"), uint16(9000), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, workers uint8) {
		chunks := len(data) / 16
		s := make([]emio.Elem, n)
		for i := range s {
			if chunks == 0 {
				break
			}
			c := data[16*(i%chunks):]
			s[i] = emio.Elem{
				Key: int64(binary.LittleEndian.Uint64(c)) + int64(i/chunks),
				Aux: int64(binary.LittleEndian.Uint64(c[8:])),
			}
		}
		want := slices.Clone(s)
		Sort(want)
		ParallelSort(s, int(workers%9))
		if i := firstDiff(s, want); i >= 0 {
			t.Fatalf("n=%d workers=%d: element %d = %v, want %v", n, workers%9, i, s[i], want[i])
		}
	})
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []emio.Elem) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
