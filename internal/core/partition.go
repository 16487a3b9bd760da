package core

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/emsel"
	"repro/internal/mpart"
)

// PartitionResult is the output of approximate K-partitioning: the K
// partitions concatenated in order (P_1 first) and their sizes. Partition i
// occupies positions sum(Sizes[:i]) .. sum(Sizes[:i+1]) of Data; elements
// within a partition are unordered.
type PartitionResult struct {
	Data  *emio.File
	Sizes []int64
}

// Release frees the result's storage.
func (r *PartitionResult) Release() {
	if r.Data != nil {
		r.Data.Release()
		r.Data = nil
	}
}

// Partition solves the approximate K-partitioning problem (paper §5.2,
// Theorem 6): it divides f into K order-respecting partitions whose sizes all
// lie in [p.A, p.B]. The input file is unchanged. Costs match Table 1 per
// variant.
func Partition(ctx *emio.Ctx, f *emio.File, p Params) (*PartitionResult, error) {
	n := f.Len()
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	sp := ctx.StartSpan("core/partition",
		emio.AttrInt("n", n), emio.AttrInt("k", p.K), emio.AttrInt("a", p.A), emio.AttrInt("b", p.B),
		emio.AttrStr("variant", p.Variant(n).String()))
	defer sp.End()
	switch p.Variant(n) {
	case RightGrounded:
		return partitionRight(ctx, f, p)
	case LeftGrounded:
		return partitionLeft(ctx, f, p)
	default:
		return partitionTwoSided(ctx, f, p)
	}
}

// partitionRight implements the b = N case in O(N/B + (aK/B) lg_{M/B}
// min{K, aK/B}) I/Os: take the a(K-1) smallest elements S', multi-partition
// S' into K-1 partitions of size exactly a, and let the remaining
// N - a(K-1) >= a elements be P_K.
func partitionRight(ctx *emio.Ctx, f *emio.File, p Params) (*PartitionResult, error) {
	n := f.Len()
	low, high, _, err := emsel.SplitAtRank(ctx, f, p.A*(p.K-1))
	if err != nil {
		return nil, err
	}
	defer high.Release()
	sizes := make([]int64, p.K)
	for i := range sizes[:p.K-1] {
		sizes[i] = p.A
	}
	sizes[p.K-1] = n - p.A*(p.K-1)
	parted, err := mpart.Partition(ctx, low, sizes[:p.K-1])
	low.Release()
	if err != nil {
		return nil, err
	}
	defer parted.Release()
	out, err := emio.WriteScratch(ctx, "partition", func(w *emio.Writer) error {
		if err := appendFile(ctx, w, parted); err != nil {
			return err
		}
		return emio.StreamInto(ctx, w, high, high.Len())
	})
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Data: out, Sizes: sizes}, nil
}

// partitionLeft implements the a = 0 case in O((N/B) lg_{M/B} min{N/b, N/B})
// I/Os: multi-partition into K' = ceil(N/b) partitions of size at most b and
// pad with K - K' empty partitions.
func partitionLeft(ctx *emio.Ctx, f *emio.File, p Params) (*PartitionResult, error) {
	n := f.Len()
	b := p.clampB(n)
	kp := ceilDiv(n, b)
	sizes := make([]int64, p.K)
	rest := n
	for i := int64(0); i < kp; i++ {
		sizes[i] = min(b, rest)
		rest -= sizes[i]
	}
	data, err := mpart.Partition(ctx, f, sizes)
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Data: data, Sizes: sizes}, nil
}

// partitionTwoSided implements the 0 < a, b < N case in
// O((aK/B) lg_{M/B} min{K, aK/B} + (N/B) lg_{M/B} min{N/b, N/B}) I/Os,
// mirroring the two-sided splitters algorithm with multi-partition in place
// of multi-selection.
func partitionTwoSided(ctx *emio.Ctx, f *emio.File, p Params) (*PartitionResult, error) {
	n := f.Len()
	b := p.clampB(n)
	// Wide-margin regime: perfectly equal partitions are legal.
	if p.A >= n/(2*p.K) || b <= 2*n/p.K {
		sizes := make([]int64, p.K)
		for i := range sizes {
			sizes[i] = n / p.K
		}
		data, err := mpart.Partition(ctx, f, sizes)
		if err != nil {
			return nil, err
		}
		return &PartitionResult{Data: data, Sizes: sizes}, nil
	}

	kp := (b*p.K - n) / (b - p.A)
	if kp < 1 || kp >= p.K {
		return nil, fmt.Errorf("core: internal: K'=%d outside [1,%d) for N=%d a=%d b=%d K=%d",
			kp, p.K, n, p.A, b, p.K)
	}
	low, high, _, err := emsel.SplitAtRank(ctx, f, p.A*kp)
	if err != nil {
		return nil, err
	}
	defer low.Release()
	defer high.Release()

	sizes := make([]int64, p.K)
	for i := int64(0); i < kp; i++ {
		sizes[i] = p.A
	}
	h := high.Len()
	rem := p.K - kp
	prev := int64(0)
	for i := int64(0); i < rem; i++ {
		cum := (i + 1) * h / rem
		sizes[kp+i] = cum - prev
		prev = cum
	}
	for i, s := range sizes {
		if s < p.A || s > b {
			return nil, fmt.Errorf("core: internal: partition %d size %d outside [%d,%d]", i, s, p.A, b)
		}
	}

	lowPart, err := mpart.Partition(ctx, low, sizes[:kp])
	if err != nil {
		return nil, err
	}
	defer lowPart.Release()
	highPart, err := mpart.Partition(ctx, high, sizes[kp:])
	if err != nil {
		return nil, err
	}
	defer highPart.Release()
	out, err := emio.WriteScratch(ctx, "partition", func(w *emio.Writer) error {
		if err := appendFile(ctx, w, lowPart); err != nil {
			return err
		}
		return appendFile(ctx, w, highPart)
	})
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Data: out, Sizes: sizes}, nil
}
