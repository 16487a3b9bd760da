package emio

import "fmt"

// Elem is the record type moved between disk and memory. Key is the ordered
// attribute the paper's problems are defined on; Aux is an auxiliary word that
// carries a payload, a sequence number, or (inside the intermixed-selection
// machinery) a packed (group, sequence) pair.
//
// An Elem is two words. The indivisibility assumption of the EM model applies:
// algorithms move whole Elems and never split a record across blocks.
type Elem struct {
	Key int64
	Aux int64
}

// cmpHook, when non-nil, observes the outcome of every Less/Compare call as
// an ordered pair (lo strictly precedes hi). It exists for the
// comparison-transcript tests that rebuild the partial order ≺* an algorithm
// has learned (paper §2) and check the proofs' combinatorial facts against
// real executions. The model is sequential, so a plain package variable is
// safe; the nil check costs nothing measurable.
var cmpHook func(lo, hi Elem)

// SetCompareHook installs (or, with nil, removes) the comparison observer.
// Harness-side use only.
func SetCompareHook(h func(lo, hi Elem)) { cmpHook = h }

// CompareHooked reports whether a comparison observer is installed. Code
// that could spread comparisons over several goroutines stays on one while
// it is, so the observer sees the sequential transcript.
func CompareHooked() bool { return cmpHook != nil }

// Less reports whether a precedes b in the total order (Key, Aux).
//
// All algorithms in this repository compare elements with Less, Compare or
// the classification kernel (Bucket, Classify), which runs on Less whenever
// a compare hook is installed. So as long as every element carries a
// distinct Aux the order is total and ranks are unambiguous even under
// duplicate keys.
func Less(a, b Elem) bool {
	less := a.Key < b.Key || (a.Key == b.Key && a.Aux < b.Aux)
	if cmpHook != nil {
		if less {
			cmpHook(a, b)
		} else if a != b {
			cmpHook(b, a)
		}
	}
	return less
}

// Compare returns -1, 0 or +1 according to the total order (Key, Aux).
func Compare(a, b Elem) int {
	c := 0
	switch {
	case a.Key < b.Key:
		c = -1
	case a.Key > b.Key:
		c = +1
	case a.Aux < b.Aux:
		c = -1
	case a.Aux > b.Aux:
		c = +1
	}
	if cmpHook != nil {
		switch c {
		case -1:
			cmpHook(a, b)
		case +1:
			cmpHook(b, a)
		}
	}
	return c
}

// String implements fmt.Stringer for debugging output.
func (e Elem) String() string {
	return fmt.Sprintf("(%d,%d)", e.Key, e.Aux)
}

// Group/sequence packing used by the L-intermixed selection primitive
// (internal/intermix). A packed Aux stores the group id in the upper bits and
// a per-element sequence number in the lower bits. The limits are generous:
// up to 2^23 groups and 2^40 sequence numbers.
const (
	seqBits  = 40
	seqMask  = (int64(1) << seqBits) - 1
	MaxGroup = int64(1)<<23 - 1 // largest packable group id
	MaxSeq   = seqMask          // largest packable sequence number
)

// PackAux packs a group id and a sequence number into a single Aux word.
// It panics when either value is out of range, since that is a programming
// error in the caller, never a data-dependent condition.
func PackAux(group, seq int64) int64 {
	if group < 0 || group > MaxGroup {
		panic(fmt.Sprintf("emio.PackAux: group %d out of range [0,%d]", group, MaxGroup))
	}
	if seq < 0 || seq > MaxSeq {
		panic(fmt.Sprintf("emio.PackAux: seq %d out of range [0,%d]", seq, MaxSeq))
	}
	return group<<seqBits | seq
}

// UnpackGroup extracts the group id from a packed Aux word.
func UnpackGroup(aux int64) int64 { return aux >> seqBits }

// UnpackSeq extracts the sequence number from a packed Aux word.
func UnpackSeq(aux int64) int64 { return aux & seqMask }
