// Package inmem provides the in-memory comparison-based building blocks used
// at the base of every external-memory recursion in this repository: sorting,
// deterministic linear-time selection (the median-of-medians algorithm of
// Blum, Floyd, Pratt, Rivest and Tarjan, reference [3] of the paper), and
// multi-selection of several ranks at once.
//
// All routines order elements by the total order emio.Less (Key, then Aux)
// and operate on slices the caller has already charged to the memory budget.
// CPU time is free in the EM model, but these are the standard O(n) / O(n lg
// n) / O(n lg k) algorithms anyway, so benches run at realistic sizes.
package inmem

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/emio"
)

// Sort sorts s in place by (Key, Aux). slices.SortFunc (pattern-defeating
// quicksort on a concrete comparator) is markedly faster than a reflective
// sort.Slice, which matters for run formation, the largest in-memory sort of
// every external one.
func Sort(s []emio.Elem) {
	slices.SortFunc(s, emio.Compare)
}

// parallelCutoff is the length below which ParallelSort sorts a slice, or a
// side of a split, on one goroutine: shorter ones finish faster than a
// goroutine starts.
const parallelCutoff = 4096

// sampleSize is the number of evenly spaced elements whose median becomes a
// split's pivot.
const sampleSize = 63

// ParallelSort sorts s in place by (Key, Aux) on up to workers goroutines,
// including the caller's. It partitions s in place around the median of a
// fixed, evenly spaced sample, sorts the two sides on two goroutines, and
// recurses until each goroutine holds one side; it starts at most workers−1
// goroutines and joins them all before it returns. It allocates nothing
// beyond their stacks and draws no randomness, and the sorted order of
// distinct (Key, Aux) records is unique, so the result is the same as Sort's.
//
// It is Sort itself when workers < 2, when s is shorter than the cutoff, and
// while a compare hook is armed, so the comparison transcript stays the
// sequential one.
func ParallelSort(s []emio.Elem, workers int) {
	if workers < 2 || len(s) < parallelCutoff || emio.CompareHooked() {
		Sort(s)
		return
	}
	var wg sync.WaitGroup
	sortOn(s, workers, &wg)
	wg.Wait()
}

// sortOn sorts s on p goroutines: the caller's and p−1 it starts, each
// registered on wg. Each split hands the left side and half the goroutines
// to a new goroutine and keeps splitting the right side with the rest.
func sortOn(s []emio.Elem, p int, wg *sync.WaitGroup) {
	for p > 1 && len(s) >= parallelCutoff {
		m := partition(s, samplePivot(s))
		if m == len(s) {
			break // every element sits left of the pivot: no split to share
		}
		wg.Add(1)
		go func(left []emio.Elem, p int) {
			defer wg.Done()
			sortOn(left, p, wg)
		}(s[:m], p/2)
		s, p = s[m:], p-p/2
	}
	Sort(s)
}

// samplePivot returns the median of sampleSize elements of s at evenly
// spaced positions, first and last included. len(s) >= sampleSize.
func samplePivot(s []emio.Elem) emio.Elem {
	var sample [sampleSize]emio.Elem
	last := len(s) - 1
	for i := range sample {
		sample[i] = s[i*last/(sampleSize-1)]
	}
	Sort(sample[:])
	return sample[sampleSize/2]
}

// partition reorders s around p, an element of s, by Hoare's scheme and
// returns m with every element of s[:m] ≤ p ≤ every element of s[m:], and
// 1 <= m <= len(s). Elements equal to p stop both scans and are swapped, so a
// slice of identical elements splits in the middle.
func partition(s []emio.Elem, p emio.Elem) int {
	i, j := -1, len(s)
	for {
		for j--; emio.Compare(s[j], p) > 0; j-- {
		}
		for i++; emio.Compare(s[i], p) < 0; i++ {
		}
		if i >= j {
			return j + 1
		}
		s[i], s[j] = s[j], s[i]
	}
}

// IsSorted reports whether s is nondecreasing by (Key, Aux).
func IsSorted(s []emio.Elem) bool {
	for i := 1; i < len(s); i++ {
		if emio.Less(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// Select returns the element of rank k in s (1-based: k=1 is the smallest),
// reordering s in the process. It runs in worst-case linear time via
// median-of-medians pivoting. It panics if k is out of [1, len(s)]; that is a
// caller bug, never a data-dependent condition.
func Select(s []emio.Elem, k int) emio.Elem {
	if k < 1 || k > len(s) {
		panic(fmt.Sprintf("inmem.Select: rank %d out of [1,%d]", k, len(s)))
	}
	lo, hi := 0, len(s) // select within s[lo:hi]
	k--                 // to 0-based index
	for {
		n := hi - lo
		if n <= 5 {
			insertionSort(s[lo:hi])
			return s[lo+k]
		}
		pivot := medianOfMedians(s[lo:hi])
		lt, eq := partition3(s[lo:hi], pivot)
		switch {
		case k < lt:
			hi = lo + lt
		case k < lt+eq:
			return pivot
		default:
			lo, k = lo+lt+eq, k-lt-eq
		}
	}
}

// Median returns the lower median of s (rank ceil(n/2)).
func Median(s []emio.Elem) emio.Elem {
	return Select(s, (len(s)+1)/2)
}

// MedianOfFive returns the lower median of a group of at most five elements
// without allocating; it is the workhorse of the subgroup phase of the
// L-intermixed selection algorithm (paper §4.1). The slice is reordered.
func MedianOfFive(s []emio.Elem) emio.Elem {
	if len(s) == 0 || len(s) > 5 {
		panic(fmt.Sprintf("inmem.MedianOfFive: group size %d", len(s)))
	}
	insertionSort(s)
	return s[(len(s)-1)/2]
}

// MultiSelect returns the elements of the given 1-based ranks in s, in the
// same order as ranks. Ranks need not be sorted or distinct. s is reordered.
// The running time is O(n lg k) by recursing on the middle requested rank.
func MultiSelect(s []emio.Elem, ranks []int) []emio.Elem {
	for _, r := range ranks {
		if r < 1 || r > len(s) {
			panic(fmt.Sprintf("inmem.MultiSelect: rank %d out of [1,%d]", r, len(s)))
		}
	}
	out := make([]emio.Elem, len(ranks))
	// Order the rank requests, keeping their output positions.
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return ranks[a] - ranks[b] })
	multiSelect(s, 0, ranks, idx, out)
	return out
}

// multiSelect answers the requests idx (sorted by rank) against the subarray
// s, whose elements occupy global ranks base+1 .. base+len(s).
func multiSelect(s []emio.Elem, base int, ranks []int, idx []int, out []emio.Elem) {
	if len(idx) == 0 {
		return
	}
	mid := len(idx) / 2
	r := ranks[idx[mid]] - base // rank of the middle request within s
	e := Select(s, r)
	// Answer every request with this exact rank (duplicates collapse here).
	lo, hi := mid, mid+1
	for lo > 0 && ranks[idx[lo-1]] == ranks[idx[mid]] {
		lo--
	}
	for hi < len(idx) && ranks[idx[hi]] == ranks[idx[mid]] {
		hi++
	}
	for _, i := range idx[lo:hi] {
		out[i] = e
	}
	// Select left s partitioned around rank r: s[:r] holds the r smallest.
	multiSelect(s[:r], base, ranks, idx[:lo], out)
	multiSelect(s[r:], base+r, ranks, idx[hi:], out)
}

// Rank returns the number of elements of s that are <= e in the total order.
func Rank(s []emio.Elem, e emio.Elem) int {
	n := 0
	for _, x := range s {
		if !emio.Less(e, x) {
			n++
		}
	}
	return n
}

// medianOfMedians returns a pivot guaranteed to have at least 3n/10-O(1)
// elements on each side: the classic BFPRT pivot.
func medianOfMedians(s []emio.Elem) emio.Elem {
	n := len(s)
	// Gather the median of each group of 5 into the prefix of s.
	m := 0
	for i := 0; i < n; i += 5 {
		g := s[i:min(i+5, n)]
		med := MedianOfFive(g)
		s[m], s[i+(len(g)-1)/2] = med, s[m]
		m++
	}
	if m == 1 {
		return s[0]
	}
	return Select(s[:m], (m+1)/2)
}

// partition3 three-way partitions s around pivot, returning the count of
// elements strictly less than the pivot and the count equal to it. With the
// (Key, Aux) total order on distinct records eq is normally 1, but the
// routine is correct for arbitrary duplicates.
func partition3(s []emio.Elem, pivot emio.Elem) (lt, eq int) {
	i, j, k := 0, 0, len(s) // invariant: s[:i] < p, s[i:j] == p, s[k:] > p
	for j < k {
		c := emio.Compare(s[j], pivot)
		switch {
		case c < 0:
			s[i], s[j] = s[j], s[i]
			i++
			j++
		case c > 0:
			k--
			s[j], s[k] = s[k], s[j]
		default:
			j++
		}
	}
	return i, j - i
}

func insertionSort(s []emio.Elem) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && emio.Less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
