package main

import (
	"cmp"
	"fmt"
	"slices"

	"repro"
	"repro/internal/verify"
)

// oracle is what the checks know about a workload's input. It is built on
// the host during setup, outside the timed set-up, and each check runs in
// O(N) or O(K log N) against it.
type oracle struct {
	n      int64
	digest digest
	sorted []empart.Elem // ascending copy of the input; nil unless a check needs ranks
}

func newOracle(elems []empart.Elem, needSorted bool) *oracle {
	o := &oracle{n: int64(len(elems)), digest: digestOf(elems)}
	if needSorted {
		o.sorted = slices.Clone(elems)
		slices.SortFunc(o.sorted, compareElems)
	}
	return o
}

func compareElems(a, b empart.Elem) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Aux, b.Aux)
}

// digest is a commutative multiset fingerprint: two independent 64-bit sums
// of per-element hashes, so any order of the same records gives the same
// digest and a dropped, duplicated or altered record changes it.
type digest struct {
	n        int64
	sum, mix uint64
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func digestOf(data []empart.Elem) digest {
	d := digest{n: int64(len(data))}
	for _, e := range data {
		h := splitmix64(uint64(e.Key) ^ splitmix64(uint64(e.Aux)))
		d.sum += h
		d.mix += splitmix64(h)
	}
	return d
}

func (o *oracle) sameMultiset(data []empart.Elem) error {
	if got := digestOf(data); got != o.digest {
		return fmt.Errorf("output is not a permutation of the input (%d elements, want %d, or a record changed)", got.n, o.n)
	}
	return nil
}

// checkSorted checks a Sort output: nondecreasing, and the input's multiset.
func checkSorted(o *oracle, data []empart.Elem) error {
	for i := 1; i < len(data); i++ {
		if compareElems(data[i-1], data[i]) > 0 {
			return fmt.Errorf("sort output out of order at %d", i)
		}
	}
	return o.sameMultiset(data)
}

// checkPartition checks a Partition output: K sizes in [a, b] summing to N,
// order-respecting segments, and the input's multiset.
func checkPartition(o *oracle, data []empart.Elem, sizes []int64, k, a, b int64) error {
	if int64(len(sizes)) != k {
		return fmt.Errorf("partition has %d parts, want %d", len(sizes), k)
	}
	var sum int64
	for i, s := range sizes {
		if s < a || s > b {
			return fmt.Errorf("partition %d has %d elements, outside [%d, %d]", i, s, a, b)
		}
		sum += s
	}
	if sum != o.n {
		return fmt.Errorf("partition sizes sum to %d, want %d", sum, o.n)
	}
	if err := verify.OrderedSegments(data, sizes); err != nil {
		return err
	}
	return o.sameMultiset(data)
}

// checkSplitters checks a Splitters output by rank lookups in the sorted
// copy: K-1 distinct input elements whose buckets all hold between a and
// min(b, N) elements.
func checkSplitters(o *oracle, sp []empart.Elem, k, a, b int64) error {
	if int64(len(sp)) != k-1 {
		return fmt.Errorf("%d splitters, want %d", len(sp), k-1)
	}
	sp = slices.Clone(sp)
	slices.SortFunc(sp, compareElems)
	b = min(b, o.n)
	prev := int64(-1) // rank (0-based) of the previous splitter
	for i, s := range sp {
		r, found := slices.BinarySearchFunc(o.sorted, s, compareElems)
		if !found {
			return fmt.Errorf("splitter %d (%v) is not an input element", i, s)
		}
		if int64(r) == prev {
			return fmt.Errorf("splitter %d (%v) is repeated", i, s)
		}
		if size := int64(r) - prev; size < a || size > b {
			return fmt.Errorf("bucket %d has %d elements, outside [%d, %d]", i, size, a, b)
		}
		prev = int64(r)
	}
	if last := o.n - 1 - prev; last < a || last > b {
		return fmt.Errorf("last bucket has %d elements, outside [%d, %d]", last, a, b)
	}
	return nil
}

// checkSelected checks a MultiSelect output against the sorted copy.
func checkSelected(o *oracle, got []empart.Elem, ranks []int64) error {
	if len(got) != len(ranks) {
		return fmt.Errorf("%d results for %d ranks", len(got), len(ranks))
	}
	for i, r := range ranks {
		if got[i] != o.sorted[r-1] {
			return fmt.Errorf("rank %d is %v, want %v", r, got[i], o.sorted[r-1])
		}
	}
	return nil
}
