package emio

import (
	"math/bits"
	"sort"
)

// Lanes is how many elements the classification kernel searches at once.
// Callers that classify a stream hand it batches of at most Lanes elements
// with a [Lanes]int result array on their stack, so the kernel charges no
// memory beyond O(1) words.
const Lanes = 8

// signBit flips a two's-complement word into offset binary, so that unsigned
// comparison of flipped words orders them as signed integers.
const signBit = 1 << 63

// Bucket returns the number of elements of the sorted slice sp that strictly
// precede e in the total order (Key, Aux): the index in [0, len(sp)] of the
// bucket (sp[i-1], sp[i]] that e falls in. It is exactly
//
//	sort.Search(len(sp), func(i int) bool { return !Less(sp[i], e) })
//
// computed without branching on the data (see Classify). With a compare hook
// installed it runs that reference search, so the hook observes every
// comparison.
func Bucket(sp []Elem, e Elem) int {
	if cmpHook != nil {
		return searchLess(sp, e)
	}
	n := len(sp)
	if n == 0 {
		return 0
	}
	k, a := uint64(e.Key)^signBit, uint64(e.Aux)^signBit
	base := 0
	for n > 1 {
		half := n >> 1
		base += half & precedes(&sp[base+half], k, a)
		n -= half
	}
	return base + 1&precedes(&sp[base], k, a)
}

// Classify sets out[i] = Bucket(sp, es[i]) for every i < len(es); out must be
// at least as long as es.
//
// The kernel is the branch-free lower bound of Khuong and Morin's "Array
// layouts for comparison-based searching" run over Lanes elements in lock
// step: every lane walks the same halving schedule over sp, which depends on
// len(sp) alone, and advances its base by a mask rather than a jump. The
// lanes' splitter loads are independent, so their cache misses overlap, and
// no comparison outcome is ever predicted. This is the super scalar
// samplesort classifier of Sanders and Winkel (ESA 2004) without its
// implicit search-tree copy.
//
// With a compare hook installed, Classify runs the reference search element
// by element, in order, so the hook observes exactly the comparisons the
// sort.Search loop it replaced made.
func Classify(sp, es []Elem, out []int) {
	out = out[:len(es)]
	if cmpHook != nil {
		for i, e := range es {
			out[i] = searchLess(sp, e)
		}
		return
	}
	if len(sp) == 0 {
		clear(out)
		return
	}
	for len(es) >= Lanes {
		classifyLanes(sp, (*[Lanes]Elem)(es), (*[Lanes]int)(out))
		es, out = es[Lanes:], out[Lanes:]
	}
	for i, e := range es {
		out[i] = Bucket(sp, e)
	}
}

// classifyLanes is Classify's full batch: Lanes lower-bound searches over a
// nonempty sp, interleaved step by step.
func classifyLanes(sp []Elem, es *[Lanes]Elem, out *[Lanes]int) {
	var k, a [Lanes]uint64
	for l := range es {
		k[l] = uint64(es[l].Key) ^ signBit
		a[l] = uint64(es[l].Aux) ^ signBit
	}
	var base [Lanes]int
	for n := len(sp); n > 1; {
		half := n >> 1
		for l := range base {
			base[l] += half & precedes(&sp[base[l]+half], k[l], a[l])
		}
		n -= half
	}
	for l := range base {
		out[l] = base[l] + 1&precedes(&sp[base[l]], k[l], a[l])
	}
}

// precedes returns -1 (all ones) when s strictly precedes the element whose
// sign-flipped words are (k, a) in the order (Key, Aux), and 0 otherwise.
// It subtracts the two 128-bit offset-binary numbers (Key:Aux) and keeps the
// borrow: one SUB/SBB pair, no branch.
func precedes(s *Elem, k, a uint64) int {
	_, borrow := bits.Sub64(uint64(s.Aux)^signBit, a, 0)
	_, borrow = bits.Sub64(uint64(s.Key)^signBit, k, borrow)
	return -int(borrow)
}

// searchLess is the reference classifier: binary search with Less, which
// reports each comparison to the compare hook.
func searchLess(sp []Elem, e Elem) int {
	return sort.Search(len(sp), func(i int) bool { return !Less(sp[i], e) })
}
