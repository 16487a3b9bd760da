package emio

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// scanCase is one input and splitter set for the shared scans.
type scanCase struct {
	name string
	in   []Elem
	sp   []Elem // ascending
}

const scanB = 8

func scanCases() []scanCase {
	rng := rand.New(rand.NewPCG(3, 4))
	random := func(n int, keys int64) []Elem {
		s := make([]Elem, n)
		for i := range s {
			s[i] = Elem{Key: rng.Int64N(keys), Aux: int64(i)}
		}
		return s
	}
	equal := make([]Elem, 37)
	for i := range equal {
		equal[i] = Elem{Key: 7, Aux: int64(i)}
	}
	return []scanCase{
		{"empty", nil, []Elem{{5, 0}, {10, 0}}},
		{"one", []Elem{{4, 0}}, []Elem{{2, 0}, {9, 0}}},
		// 45 elements: five full blocks and a partial one.
		{"ragged", random(45, 50), []Elem{{12, 3}, {25, 0}, {40, 9}}},
		// Equal keys told apart by Aux alone.
		{"equal-keys", equal, []Elem{{7, 5}, {7, 30}}},
		// Repeated splitters leave the buckets between the copies empty.
		{"duplicate-splitters", random(64, 30), []Elem{{10, 0}, {10, 0}, {10, 0}, {20, 0}}},
		{"empty-last-bucket", random(40, 20), []Elem{{5, 0}, {15, 0}, {math.MaxInt64, 0}}},
	}
}

// blocksOf is ceil(n/B) for the scans' block size.
func blocksOf(n int) int64 { return int64((n + scanB - 1) / scanB) }

// bucketRef is the reference distribution: the input in order, split by
// Bucket.
func bucketRef(in, sp []Elem) [][]Elem {
	ref := make([][]Elem, len(sp)+1)
	for _, e := range in {
		j := Bucket(sp, e)
		ref[j] = append(ref[j], e)
	}
	return ref
}

// checkClean fails the test unless every file the scan made is released and
// the accountant is back at zero.
func checkClean(t *testing.T, ctx *Ctx) {
	t.Helper()
	if live := ctx.Disk().LiveScratchFiles(); len(live) != 0 {
		t.Errorf("live scratch files %v", live)
	}
	if used := ctx.Mem().Used(); used != 0 {
		t.Errorf("accountant holds %d elements", used)
	}
}

func TestSharedScans(t *testing.T) {
	for _, c := range scanCases() {
		ref := bucketRef(c.in, c.sp)
		t.Run(c.name+"/Scatter", func(t *testing.T) {
			ctx := mustCtx(t, 256, scanB)
			f := BuildFile(ctx.Disk(), "in", c.in)
			buckets, counts, err := Scatter(ctx, f, c.sp, "bucket")
			if err != nil {
				t.Fatal(err)
			}
			want := Stats{Reads: blocksOf(len(c.in))}
			for j, b := range buckets {
				if got := b.Snapshot(); !slices.Equal(got, ref[j]) || counts[j] != int64(len(ref[j])) {
					t.Errorf("bucket %d: %v (count %d), want %v", j, got, counts[j], ref[j])
				}
				want.Writes += blocksOf(len(ref[j]))
				b.Release()
			}
			if st := ctx.Disk().Stats(); st != want {
				t.Errorf("stats %+v, want %+v", st, want)
			}
			checkClean(t, ctx)
		})
		t.Run(c.name+"/CountBuckets", func(t *testing.T) {
			ctx := mustCtx(t, 256, scanB)
			f := BuildFile(ctx.Disk(), "in", c.in)
			counts, top, err := CountBuckets(ctx, f, c.sp)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ref {
				if counts[j] != int64(len(ref[j])) {
					t.Errorf("bucket %d: count %d, want %d", j, counts[j], len(ref[j]))
				}
			}
			var wantTop Elem
			if last := ref[len(ref)-1]; len(last) > 0 {
				wantTop = slices.MaxFunc(last, Compare)
			}
			if top != wantTop {
				t.Errorf("top %v, want %v", top, wantTop)
			}
			if st := ctx.Disk().Stats(); st != (Stats{Reads: blocksOf(len(c.in))}) {
				t.Errorf("stats %+v, want %d reads", st, blocksOf(len(c.in)))
			}
			ctx.FreeInts(counts)
			checkClean(t, ctx)
		})
		for _, n := range slices.Compact([]int{0, min(len(c.in), scanB+scanB/2), len(c.in)}) {
			t.Run(fmt.Sprintf("%s/StreamInto-%d", c.name, n), func(t *testing.T) {
				ctx := mustCtx(t, 256, scanB)
				f := BuildFile(ctx.Disk(), "in", c.in)
				dst := ctx.Scratch("dst")
				w, err := NewWriter(ctx, dst)
				if err != nil {
					t.Fatal(err)
				}
				if err := StreamInto(ctx, w, f, int64(n)); err != nil {
					t.Fatal(err)
				}
				if st := ctx.Disk().Stats(); st.Reads != blocksOf(n) {
					t.Errorf("%d reads, want %d", st.Reads, blocksOf(n))
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got := dst.Snapshot(); !slices.Equal(got, c.in[:n]) {
					t.Errorf("copied %v, want %v", got, c.in[:n])
				}
				dst.Release()
				checkClean(t, ctx)
			})
		}
	}
}

func TestStreamIntoShortSource(t *testing.T) {
	ctx := mustCtx(t, 256, scanB)
	f := BuildFile(ctx.Disk(), "in", seqElems(10))
	dst := ctx.Scratch("dst")
	w, _ := NewWriter(ctx, dst)
	if err := StreamInto(ctx, w, f, 11); err == nil {
		t.Error("StreamInto of 11 elements from a 10-element file succeeded")
	}
	w.Close()
	dst.Release()
	checkClean(t, ctx)
}

// TestSharedScansUnderFault fails one read, and for the scans that write one
// write, at the first and the last transfer of each scan: the scan must
// return the fault and leave no scratch file live and no memory charged.
func TestSharedScansUnderFault(t *testing.T) {
	boom := errors.New("boom")
	in := scanCases()[2] // ragged: six input blocks, four buckets
	scans := map[string]func(ctx *Ctx, f *File) error{
		"Scatter": func(ctx *Ctx, f *File) error {
			buckets, _, err := Scatter(ctx, f, in.sp, "bucket")
			for _, b := range buckets {
				b.Release()
			}
			return err
		},
		"CountBuckets": func(ctx *Ctx, f *File) error {
			counts, _, err := CountBuckets(ctx, f, in.sp)
			if err == nil {
				ctx.FreeInts(counts)
			}
			return err
		},
		"StreamInto": func(ctx *Ctx, f *File) error {
			dst := ctx.Scratch("dst")
			defer dst.Release()
			w, err := NewWriter(ctx, dst)
			if err != nil {
				return err
			}
			return errors.Join(StreamInto(ctx, w, f, f.Len()), w.Close())
		},
		"Copy": func(ctx *Ctx, f *File) error {
			dup, err := Copy(ctx, f)
			if err == nil {
				dup.Release()
			}
			return err
		},
	}
	for name, scan := range scans {
		for _, kind := range []string{"read", "write"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				ctx := mustCtx(t, 256, scanB)
				if err := scan(ctx, BuildFile(ctx.Disk(), "in", in.in)); err != nil {
					t.Fatalf("clean run: %v", err)
				}
				total := ctx.Disk().Stats().Reads
				if kind == "write" {
					total = ctx.Disk().Stats().Writes
				}
				if total == 0 {
					t.Skipf("%s performs no %ss", name, kind)
				}
				for _, point := range []int64{0, total - 1} {
					ctx := mustCtx(t, 256, scanB)
					f := BuildFile(ctx.Disk(), "in", in.in)
					count := int64(0)
					hook := func(*File, int) error {
						count++
						if count == point+1 {
							return boom
						}
						return nil
					}
					if kind == "read" {
						ctx.Disk().SetReadFault(hook)
					} else {
						ctx.Disk().SetWriteFault(hook)
					}
					if err := scan(ctx, f); !errors.Is(err, boom) {
						t.Errorf("fault at %s %d of %d: err = %v", kind, point, total, err)
					}
					checkClean(t, ctx)
				}
			})
		}
	}
}
