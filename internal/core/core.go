// Package core implements the paper's two headline problems, both defined on
// a set S of N ordered elements, an integer K dividing N, and an integer
// range [a, b] with a <= N/K <= b:
//
//   - Approximate K-splitters (paper §5.1, Theorem 5): find K-1 elements
//     s_1 < ... < s_{K-1} of S such that every induced bucket
//     S ∩ (s_{i-1}, s_i] holds between a and b elements.
//
//   - Approximate K-partitioning (paper §5.2, Theorem 6): physically divide S
//     into partitions P_1 < ... < P_K with a <= |P_i| <= b, output as a
//     concatenated list.
//
// Both problems come in three regimes, dispatched automatically from (a, b):
// right-grounded (b = N), left-grounded (a = 0) and two-sided. The I/O costs
// match the paper's optimal bounds (Table 1):
//
//	splitters     right: O((1 + aK/B) lg_{M/B}(K/B))
//	              left:  O((N/B) lg_{M/B}(N/(bB)))
//	              two-sided: the sum of the two
//	partitioning  right: O(N/B + (aK/B) lg_{M/B} min{K, aK/B})
//	              left:  O((N/B) lg_{M/B} min{N/b, N/B})
//	              two-sided: the sum of the two
//
// The algorithms are direct transcriptions of §5 on top of multi-selection
// (Theorem 4, package msel), multi-partition (package mpart) and exact
// selection (package emsel). One unanalysed corner of the paper — the
// left-grounded splitters padding step, "select K-K' arbitrary distinct
// elements", when the K'-1 selected splitters do not fit in memory — falls
// back to a sort-based path; see splitters.go and DESIGN.md §4.
package core

import (
	"errors"
	"fmt"

	"repro/internal/emio"
)

// Variant names the parameter regime of an instance.
type Variant int

const (
	// RightGrounded is the b = N regime: only the lower bound a binds.
	RightGrounded Variant = iota
	// LeftGrounded is the a = 0 regime: only the upper bound b binds.
	LeftGrounded
	// TwoSided is the regime with both 0 < a and b < N binding.
	TwoSided
)

// String names the regime for reports and errors.
func (v Variant) String() string {
	switch v {
	case RightGrounded:
		return "right-grounded"
	case LeftGrounded:
		return "left-grounded"
	case TwoSided:
		return "two-sided"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Params carries the problem parameters: the partition count K and the size
// range [A, B] every partition/bucket must fall in.
type Params struct {
	K int64
	A int64
	B int64
}

// ErrBadParams wraps all parameter validation failures.
var ErrBadParams = errors.New("core: invalid parameters")

// Validate checks the paper's parameter conditions against an input of n
// elements: K in [1, n], n a multiple of K, 0 <= A <= n/K and n/K <= B.
// (B larger than n is legal and equivalent to B = n.)
func (p Params) Validate(n int64) error {
	if n < 1 {
		return fmt.Errorf("%w: empty input", ErrBadParams)
	}
	if p.K < 1 || p.K > n {
		return fmt.Errorf("%w: K=%d out of [1,%d]", ErrBadParams, p.K, n)
	}
	if n%p.K != 0 {
		return fmt.Errorf("%w: N=%d is not a multiple of K=%d", ErrBadParams, n, p.K)
	}
	if p.A < 0 || p.A > n/p.K {
		return fmt.Errorf("%w: a=%d out of [0,%d]", ErrBadParams, p.A, n/p.K)
	}
	if p.B < n/p.K {
		return fmt.Errorf("%w: b=%d below N/K=%d", ErrBadParams, p.B, n/p.K)
	}
	return nil
}

// Variant classifies the instance: a = 0 is left-grounded (including the
// fully trivial a = 0, b = N case), b >= N is right-grounded, anything else
// two-sided.
func (p Params) Variant(n int64) Variant {
	switch {
	case p.A == 0:
		return LeftGrounded
	case p.B >= n:
		return RightGrounded
	default:
		return TwoSided
	}
}

// clampB returns b truncated to n, the effective upper bound.
func (p Params) clampB(n int64) int64 {
	if p.B > n {
		return n
	}
	return p.B
}

// ceilDiv returns ceil(x/y) for positive y.
func ceilDiv(x, y int64) int64 { return (x + y - 1) / y }

// appendFile streams src onto w, releasing src.
func appendFile(ctx *emio.Ctx, w *emio.Writer, src *emio.File) error {
	defer src.Release()
	return emio.StreamInto(ctx, w, src, src.Len())
}
