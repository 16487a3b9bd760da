package emio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// refBucket is the reference classifier the kernel must reproduce: the
// sort.Search lower bound over Less.
func refBucket(sp []Elem, e Elem) int {
	return sort.Search(len(sp), func(i int) bool { return !Less(sp[i], e) })
}

// checkClassify compares Bucket and Classify against the reference for every
// probe, through batches of every length from 1 to 2*Lanes+1 so full lanes,
// short tails and mixes of both are all exercised.
func checkClassify(t *testing.T, sp, probes []Elem) {
	t.Helper()
	want := make([]int, len(probes))
	for i, e := range probes {
		want[i] = refBucket(sp, e)
		if got := Bucket(sp, e); got != want[i] {
			t.Fatalf("Bucket(%d splitters, %v) = %d, want %d", len(sp), e, got, want[i])
		}
	}
	got := make([]int, len(probes))
	for batch := 1; batch <= 2*Lanes+1; batch++ {
		for i := range got {
			got[i] = -1
		}
		for lo := 0; lo < len(probes); lo += batch {
			hi := min(lo+batch, len(probes))
			Classify(sp, probes[lo:hi], got[lo:hi])
		}
		for i := range probes {
			if got[i] != want[i] {
				t.Fatalf("Classify(%d splitters, batch %d): probe %d %v -> %d, want %d",
					len(sp), batch, i, probes[i], got[i], want[i])
			}
		}
	}
}

// splitterProbes returns probes around every splitter (exact hits, both
// neighbours in Key and in Aux) plus the extremes of both words.
func splitterProbes(sp []Elem) []Elem {
	probes := []Elem{
		{math.MinInt64, math.MinInt64}, {math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
		{0, 0}, {-1, -1}, {0, math.MinInt64}, {-1, math.MaxInt64},
	}
	for _, s := range sp {
		probes = append(probes, s)
		if s.Aux > math.MinInt64 {
			probes = append(probes, Elem{s.Key, s.Aux - 1})
		}
		if s.Aux < math.MaxInt64 {
			probes = append(probes, Elem{s.Key, s.Aux + 1})
		}
		if s.Key > math.MinInt64 {
			probes = append(probes, Elem{s.Key - 1, s.Aux})
		}
		if s.Key < math.MaxInt64 {
			probes = append(probes, Elem{s.Key + 1, s.Aux})
		}
	}
	return probes
}

func sortedElems(s []Elem) []Elem {
	slices.SortFunc(s, Compare)
	return s
}

func TestClassifyMatchesReference(t *testing.T) {
	extremes := sortedElems([]Elem{
		{math.MinInt64, math.MinInt64}, {math.MinInt64, 0}, {math.MinInt64, math.MaxInt64},
		{-1, math.MaxInt64}, {0, math.MinInt64}, {0, 0},
		{math.MaxInt64, math.MinInt64}, {math.MaxInt64, -1}, {math.MaxInt64, math.MaxInt64},
	})
	cases := map[string][]Elem{
		"empty":    nil,
		"one":      {{5, 5}},
		"two":      {{5, 5}, {9, 0}},
		"extremes": extremes,
		// Equal keys told apart by Aux alone.
		"tied-keys": {{3, -2}, {3, 0}, {3, 7}, {3, 8}, {4, math.MinInt64}, {4, math.MaxInt64}},
		// Repeated records: the lower bound is the first copy.
		"duplicates": {{1, 1}, {2, 2}, {2, 2}, {2, 2}, {3, 3}},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{3, 5, 7, 8, 9, 15, 16, 17, 100, 117, 251, 256, 681} {
		sp := make([]Elem, n)
		for i := range sp {
			sp[i] = Elem{Key: rng.Int64N(64) - 32, Aux: rng.Int64()}
		}
		cases[fmt.Sprintf("random-%d", n)] = sortedElems(sp)
	}
	for name, sp := range cases {
		t.Run(name, func(t *testing.T) {
			probes := splitterProbes(sp)
			for i := 0; i < 200; i++ {
				probes = append(probes, Elem{Key: rng.Int64N(80) - 40, Aux: rng.Int64() - rng.Int64()})
			}
			checkClassify(t, sp, probes)
		})
	}
}

// FuzzClassify checks Bucket and Classify against the sort.Search reference
// on fuzzer-chosen splitters and probes. Run with `go test -fuzz
// FuzzClassify ./internal/emio`.
func FuzzClassify(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{0, 0x80})
	f.Add([]byte("splitters with tied keys and distinct aux words"), []byte("probes"))
	f.Fuzz(func(t *testing.T, spRaw, probeRaw []byte) {
		sp := sortedElems(elemsFromBytes(spRaw))
		probes := append(elemsFromBytes(probeRaw), splitterProbes(sp)...)
		checkClassify(t, sp, probes)
	})
}

// elemsFromBytes decodes raw bytes as elements, padding the tail with zeros.
// Short inputs still yield elements, and small byte values make tied keys
// common.
func elemsFromBytes(raw []byte) []Elem {
	var out []Elem
	for len(raw) > 0 {
		var w [elemBytes]byte
		n := copy(w[:], raw)
		raw = raw[n:]
		var e [1]Elem
		decodeElems(e[:], w[:], false)
		out = append(out, e[0])
	}
	return out
}

func TestClassifyReportsComparisonsToHook(t *testing.T) {
	sp := []Elem{{1, 0}, {3, 0}, {5, 0}, {7, 0}, {9, 0}}
	es := []Elem{{0, 0}, {4, 0}, {5, 0}, {6, 1}, {10, 0}, {2, 9}, {8, 0}, {9, 0}, {7, -1}}

	type pair struct{ lo, hi Elem }
	var want, got []pair
	record := func(dst *[]pair) func(lo, hi Elem) {
		return func(lo, hi Elem) { *dst = append(*dst, pair{lo, hi}) }
	}
	SetCompareHook(record(&want))
	for _, e := range es {
		refBucket(sp, e)
	}
	refBucket(sp, es[0])
	SetCompareHook(record(&got))
	defer SetCompareHook(nil)
	out := make([]int, len(es))
	Classify(sp, es, out)
	Bucket(sp, es[0])
	SetCompareHook(nil)

	if !slices.Equal(got, want) {
		t.Fatalf("hook observed %d comparisons %v, want the reference's %d %v", len(got), got, len(want), want)
	}
	for i, e := range es {
		if out[i] != refBucket(sp, e) {
			t.Errorf("hooked Classify(%v) = %d, want %d", e, out[i], refBucket(sp, e))
		}
	}
}

var classifySink int

func BenchmarkClassify(b *testing.B) {
	const probes = 1 << 12
	for _, n := range []int{117, 251, 681} {
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		sp := make([]Elem, n)
		for i := range sp {
			sp[i] = Elem{Key: rng.Int64(), Aux: rng.Int64()}
		}
		sortedElems(sp)
		es := make([]Elem, probes)
		for i := range es {
			es[i] = Elem{Key: rng.Int64(), Aux: rng.Int64()}
		}
		b.Run(fmt.Sprintf("reference/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, e := range es {
					classifySink += refBucket(sp, e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/elem")
		})
		b.Run(fmt.Sprintf("kernel/%d", n), func(b *testing.B) {
			var out [Lanes]int
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < probes; lo += Lanes {
					Classify(sp, es[lo:lo+Lanes], out[:])
					classifySink += out[0]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/elem")
		})
	}
}
