package emio

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func mustCtx(t *testing.T, m, b int) *Ctx {
	t.Helper()
	ctx, err := NewCtx(Config{M: m, B: b})
	if err != nil {
		t.Fatalf("NewCtx(M=%d,B=%d): %v", m, b, err)
	}
	return ctx
}

func seqElems(n int) []Elem {
	s := make([]Elem, n)
	for i := range s {
		s[i] = Elem{Key: int64(i), Aux: int64(i)}
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		m, b int
		ok   bool
	}{
		{2, 1, true},
		{8, 4, true},
		{1024, 32, true},
		{0, 0, false},
		{4, 0, false},
		{3, 2, false},  // M < 2B
		{7, 4, false},  // M < 2B
		{8, -1, false}, // negative B
	}
	for _, c := range cases {
		err := Config{M: c.m, B: c.b}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(M=%d,B=%d) = %v, want ok=%v", c.m, c.b, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBadConfig) {
			t.Errorf("Validate(M=%d,B=%d) error %v not wrapped in ErrBadConfig", c.m, c.b, err)
		}
	}
}

func TestConfigBlocks(t *testing.T) {
	c := Config{M: 64, B: 8}
	cases := []struct {
		n    int64
		want int64
	}{
		{0, 0}, {-3, 0}, {1, 1}, {7, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3},
	}
	for _, tc := range cases {
		if got := c.Blocks(tc.n); got != tc.want {
			t.Errorf("Blocks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestConfigFanOut(t *testing.T) {
	c := Config{M: 64, B: 8}
	if got := c.FanOut(0); got != 8 {
		t.Errorf("FanOut(0) = %d, want 8", got)
	}
	if got := c.FanOut(16); got != 6 {
		t.Errorf("FanOut(16) = %d, want 6", got)
	}
	if got := c.FanOut(1000); got != 1 {
		t.Errorf("FanOut(1000) = %d, want clamped 1", got)
	}
}

func TestElemOrder(t *testing.T) {
	a := Elem{Key: 1, Aux: 5}
	b := Elem{Key: 1, Aux: 9}
	c := Elem{Key: 2, Aux: 0}
	if !Less(a, b) || Less(b, a) {
		t.Error("tie-break on Aux broken")
	}
	if !Less(b, c) {
		t.Error("Key order broken")
	}
	if Compare(a, a) != 0 || Compare(a, b) != -1 || Compare(c, a) != +1 {
		t.Error("Compare inconsistent")
	}
	if Compare(Elem{0, 1}, Elem{0, 2}) != -1 || Compare(Elem{0, 2}, Elem{0, 1}) != 1 {
		t.Error("Compare Aux tie-break inconsistent")
	}
}

func TestPackAuxRoundTrip(t *testing.T) {
	cases := []struct{ g, s int64 }{
		{0, 0}, {1, 1}, {MaxGroup, MaxSeq}, {12345, 987654321},
	}
	for _, c := range cases {
		p := PackAux(c.g, c.s)
		if UnpackGroup(p) != c.g || UnpackSeq(p) != c.s {
			t.Errorf("pack(%d,%d) round-trips to (%d,%d)", c.g, c.s, UnpackGroup(p), UnpackSeq(p))
		}
	}
}

func TestPackAuxPreservesOrderWithinGroup(t *testing.T) {
	// Within one group, packed Aux must order by seq.
	if PackAux(7, 100) >= PackAux(7, 101) {
		t.Error("packed Aux does not increase with seq")
	}
	// Across groups, group dominates.
	if PackAux(1, MaxSeq) >= PackAux(2, 0) {
		t.Error("packed Aux does not order by group first")
	}
}

func TestPackAuxPanicsOutOfRange(t *testing.T) {
	for _, c := range []struct{ g, s int64 }{
		{-1, 0}, {MaxGroup + 1, 0}, {0, -1}, {0, MaxSeq + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackAux(%d,%d) did not panic", c.g, c.s)
				}
			}()
			PackAux(c.g, c.s)
		}()
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		ctx := mustCtx(t, 64, 8)
		f := ctx.Scratch("rt")
		w, err := NewWriter(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		in := seqElems(n)
		for _, e := range in {
			w.Append(e)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
		if f.Len() != int64(n) {
			t.Fatalf("n=%d: Len=%d", n, f.Len())
		}
		r, err := NewReader(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			got, ok := r.Next()
			if !ok || got != want {
				t.Fatalf("n=%d: elem %d = %v ok=%v, want %v", n, i, got, ok, want)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("n=%d: read past end", n)
		}
		if r.Err() != nil {
			t.Fatalf("n=%d: clean EOF has Err %v", n, r.Err())
		}
		r.Close()
		if ctx.Mem().Used() != 0 {
			t.Fatalf("n=%d: leaked %d elements of memory", n, ctx.Mem().Used())
		}
	}
}

func TestScanIOCountExact(t *testing.T) {
	// Writing then reading n elements must cost exactly ceil(n/B) writes and
	// ceil(n/B) reads: the scan bound of the model, with no hidden I/Os.
	for _, n := range []int{1, 8, 9, 100, 256} {
		ctx := mustCtx(t, 64, 8)
		f := ctx.Scratch("scan")
		w, _ := NewWriter(ctx, f)
		for _, e := range seqElems(n) {
			w.Append(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wantBlocks := int64((n + 7) / 8)
		if got := ctx.Disk().Stats(); got.Writes != wantBlocks || got.Reads != 0 {
			t.Fatalf("n=%d: after write stats=%v, want writes=%d reads=0", n, got, wantBlocks)
		}
		r, _ := NewReader(ctx, f)
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		r.Close()
		if got := ctx.Disk().Stats(); got.Reads != wantBlocks {
			t.Fatalf("n=%d: reads=%d, want %d", n, got.Reads, wantBlocks)
		}
	}
}

func TestEmptyFlushIsFree(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("empty")
	w, _ := NewWriter(ctx, f)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s := ctx.Disk().Stats(); s.Total() != 0 {
		t.Errorf("empty writer cost %v I/Os", s)
	}
	if f.Len() != 0 || f.NumBlocks() != 0 {
		t.Errorf("empty file has Len=%d blocks=%d", f.Len(), f.NumBlocks())
	}
}

func TestAppendAfterPartialBlockRejected(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("seal")
	if err := f.AppendBlock(seqElems(3)); err != nil {
		t.Fatal(err)
	}
	err := f.AppendBlock(seqElems(8))
	if !errors.Is(err, ErrPartialBlock) {
		t.Errorf("append after partial block: %v, want ErrPartialBlock", err)
	}
}

func TestAppendOversizedBlockRejected(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("big")
	err := f.AppendBlock(seqElems(9))
	if !errors.Is(err, ErrBlockSize) {
		t.Errorf("oversized block: %v, want ErrBlockSize", err)
	}
}

func TestReadBlockRange(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "r", seqElems(16))
	buf := make([]Elem, 8)
	if _, err := f.ReadBlock(-1, buf); !errors.Is(err, ErrBlockRange) {
		t.Errorf("block -1: %v", err)
	}
	if _, err := f.ReadBlock(2, buf); !errors.Is(err, ErrBlockRange) {
		t.Errorf("block 2 of 2: %v", err)
	}
	n, err := f.ReadBlock(1, buf)
	if err != nil || n != 8 || buf[0].Key != 8 {
		t.Errorf("block 1: n=%d err=%v first=%v", n, err, buf[0])
	}
}

func TestReleasedFileRejected(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "rel", seqElems(16))
	f.Release()
	if !f.Released() {
		t.Fatal("Released() false after Release")
	}
	if _, err := f.ReadBlock(0, make([]Elem, 8)); !errors.Is(err, ErrReleased) {
		t.Errorf("read released: %v", err)
	}
	if err := f.AppendBlock(seqElems(8)); !errors.Is(err, ErrReleased) {
		t.Errorf("append released: %v", err)
	}
	if _, err := f.BlockLen(0); !errors.Is(err, ErrReleased) {
		t.Errorf("BlockLen released: %v", err)
	}
}

func TestReadFaultInjection(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "flaky", seqElems(32))
	boom := errors.New("boom")
	ctx.Disk().SetReadFault(func(_ *File, block int) error {
		if block == 2 {
			return boom
		}
		return nil
	})
	r, _ := NewReader(ctx, f)
	var got int
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		got++
	}
	if got != 16 {
		t.Errorf("read %d elements before fault, want 16", got)
	}
	if !errors.Is(r.Err(), boom) {
		t.Errorf("Err() = %v, want boom", r.Err())
	}
	// Sticky: further Next calls keep failing without more I/O.
	before := ctx.Disk().Stats()
	if _, ok := r.Next(); ok {
		t.Error("Next succeeded after sticky error")
	}
	if ctx.Disk().Stats() != before {
		t.Error("sticky error still performed I/O")
	}
	r.Close()
	ctx.Disk().SetReadFault(nil)
}

func TestWriteFaultInjection(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("wf")
	boom := errors.New("disk full")
	ctx.Disk().SetWriteFault(func(_ *File, block int) error {
		if block == 1 {
			return boom
		}
		return nil
	})
	w, _ := NewWriter(ctx, f)
	for _, e := range seqElems(32) {
		w.Append(e)
	}
	if !errors.Is(w.Close(), boom) {
		t.Errorf("Close() = %v, want boom", w.Err())
	}
	ctx.Disk().SetWriteFault(nil)
	if ctx.Mem().Used() != 0 {
		t.Errorf("writer leaked %d memory after failure", ctx.Mem().Used())
	}
}

func TestFailedIOStillCounted(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "cnt", seqElems(8))
	ctx.Disk().SetReadFault(func(*File, int) error { return errors.New("x") })
	_, err := f.ReadBlock(0, make([]Elem, 8))
	if err == nil {
		t.Fatal("fault not injected")
	}
	if s := ctx.Disk().Stats(); s.Reads != 1 {
		t.Errorf("failed read not counted: %v", s)
	}
	ctx.Disk().SetReadFault(nil)
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(10)
	if err := a.Charge(6); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(4); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(1); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("overdraft: %v", err)
	}
	if a.Used() != 10 || a.Peak() != 10 {
		t.Errorf("used=%d peak=%d", a.Used(), a.Peak())
	}
	a.Credit(6)
	if a.Used() != 4 || a.Peak() != 10 {
		t.Errorf("after credit used=%d peak=%d", a.Used(), a.Peak())
	}
	if err := a.Charge(5); err != nil {
		t.Errorf("charge within budget after credit: %v", err)
	}
	a.ResetPeak()
	if a.Peak() != 9 {
		t.Errorf("ResetPeak: peak=%d", a.Peak())
	}
}

func TestAccountantUnlimited(t *testing.T) {
	a := NewAccountant(0)
	if err := a.Charge(1 << 40); err != nil {
		t.Errorf("unlimited accountant rejected: %v", err)
	}
}

func TestAccountantUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("underflow did not panic")
		}
	}()
	NewAccountant(10).Credit(1)
}

func TestCtxAllocFree(t *testing.T) {
	ctx := mustCtx(t, 16, 8)
	buf, err := ctx.AllocElems(8)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Mem().Used() != 8 {
		t.Errorf("used=%d after AllocElems(8)", ctx.Mem().Used())
	}
	ints, err := ctx.AllocInts(5) // charged ceil(5/2)=3 elements
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Mem().Used() != 11 {
		t.Errorf("used=%d after AllocInts(5), want 11", ctx.Mem().Used())
	}
	if _, err := ctx.AllocElems(6); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("expected budget error, got %v", err)
	}
	ctx.FreeInts(ints)
	ctx.FreeElems(buf)
	if ctx.Mem().Used() != 0 {
		t.Errorf("leak: used=%d", ctx.Mem().Used())
	}
}

func TestCtxSeedDeterminism(t *testing.T) {
	a := mustCtx(t, 64, 8)
	b := mustCtx(t, 64, 8)
	for i := 0; i < 100; i++ {
		if a.Rng().Int64() != b.Rng().Int64() {
			t.Fatal("default-seeded contexts diverge")
		}
	}
	a.SetSeed(1, 2)
	b.SetSeed(1, 2)
	if a.Rng().Int64() != b.Rng().Int64() {
		t.Fatal("SetSeed not deterministic")
	}
}

func TestCopyAndLoadStore(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	in := seqElems(50)
	src := BuildFile(ctx.Disk(), "src", in)
	dup, err := Copy(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	got := dup.Snapshot()
	if len(got) != 50 {
		t.Fatalf("copy has %d elements", len(got))
	}
	for i := range got {
		if got[i] != in[i] {
			t.Fatalf("copy differs at %d", i)
		}
	}
	// LoadAll within budget.
	buf, err := LoadAll(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 50 || buf[49] != in[49] {
		t.Fatal("LoadAll wrong contents")
	}
	ctx.FreeElems(buf)
	f2, err := StoreAll(ctx, "out", in[:13])
	if err != nil {
		t.Fatal(err)
	}
	if f2.Len() != 13 {
		t.Fatalf("StoreAll len=%d", f2.Len())
	}
	if ctx.Mem().Used() != 0 {
		t.Errorf("leak: used=%d", ctx.Mem().Used())
	}
}

func TestLoadAllRespectsBudget(t *testing.T) {
	ctx := mustCtx(t, 16, 8)
	src := BuildFile(ctx.Disk(), "big", seqElems(100))
	if _, err := LoadAll(ctx, src); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("LoadAll over budget: %v", err)
	}
	if ctx.Mem().Used() != 0 {
		t.Errorf("failed LoadAll leaked %d", ctx.Mem().Used())
	}
}

func TestBuildFileBlockLayout(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "layout", seqElems(20))
	if f.NumBlocks() != 3 {
		t.Fatalf("blocks=%d", f.NumBlocks())
	}
	for i, want := range []int{8, 8, 4} {
		n, err := f.BlockLen(i)
		if err != nil || n != want {
			t.Errorf("BlockLen(%d)=%d err=%v, want %d", i, n, err, want)
		}
	}
	if s := ctx.Disk().Stats(); s.Total() != 0 {
		t.Errorf("BuildFile charged %v", s)
	}
}

func TestReaderRemaining(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "rem", seqElems(20))
	r, _ := NewReader(ctx, f)
	defer r.Close()
	if got := r.Remaining(); got != 20 {
		t.Fatalf("initial Remaining=%d", got)
	}
	for i := 0; i < 5; i++ {
		r.Next()
	}
	if got := r.Remaining(); got != 15 {
		t.Fatalf("Remaining after 5 = %d", got)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if got := r.Remaining(); got != 0 {
		t.Fatalf("Remaining at EOF = %d", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := Config{M: 64, B: 8}
	prop := func(keys []int64) bool {
		ctx, err := NewCtx(cfg)
		if err != nil {
			return false
		}
		in := make([]Elem, len(keys))
		for i, k := range keys {
			in[i] = Elem{Key: k, Aux: int64(i)}
		}
		f, err := StoreAll(ctx, "prop", in)
		if err != nil {
			return false
		}
		out := f.Snapshot()
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return ctx.Mem().Used() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4}
	b := Stats{Reads: 3, Writes: 1}
	if d := a.Sub(b); d.Reads != 7 || d.Writes != 3 || d.Total() != 10 {
		t.Errorf("Sub: %v", d)
	}
	if s := a.Add(b); s.Reads != 13 || s.Writes != 5 {
		t.Errorf("Add: %v", s)
	}
}

func TestWriterAppendAfterCloseIsNoop(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("wc")
	w, _ := NewWriter(ctx, f)
	w.Append(Elem{Key: 1, Aux: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := ctx.Disk().Stats()
	w.Append(Elem{Key: 2, Aux: 2}) // must not panic or write
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if ctx.Disk().Stats() != before {
		t.Error("append after close performed I/O")
	}
	if f.Len() != 1 {
		t.Errorf("file grew to %d after close", f.Len())
	}
}

func TestReaderOnEmptyFile(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	r, err := NewReader(ctx, ctx.Scratch("empty"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Next(); ok {
		t.Error("read from empty file")
	}
	if r.Err() != nil {
		t.Errorf("empty file read errored: %v", r.Err())
	}
}

func TestSplitFileBasics(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "sf", seqElems(100))
	segs, err := SplitFile(ctx, f, []int64{10, 0, 50, 40})
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int64{10, 0, 50, 40}
	pos := int64(0)
	for i, seg := range segs {
		if seg.Len() != wantLens[i] {
			t.Fatalf("segment %d has %d elements, want %d", i, seg.Len(), wantLens[i])
		}
		for j, e := range seg.Snapshot() {
			if e.Key != pos+int64(j) {
				t.Fatalf("segment %d elem %d = %v", i, j, e)
			}
		}
		pos += seg.Len()
	}
	if _, err := SplitFile(ctx, f, []int64{50, 49}); err == nil {
		t.Error("bad sum accepted")
	}
	if _, err := SplitFile(ctx, f, []int64{-1, 101}); err == nil {
		t.Error("negative size accepted")
	}
	if ctx.Mem().Used() != 0 {
		t.Errorf("leaked %d", ctx.Mem().Used())
	}
}

func TestTrackReadsSemantics(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "tr", seqElems(64))
	if got := ctx.Disk().BlocksSeen(f); got != 0 {
		t.Fatalf("untracked file reports %d blocks", got)
	}
	ctx.Disk().TrackReads(f)
	buf := make([]Elem, 8)
	f.ReadBlock(3, buf)
	f.ReadBlock(3, buf) // same block twice counts once
	f.ReadBlock(5, buf)
	if got := ctx.Disk().BlocksSeen(f); got != 2 {
		t.Errorf("BlocksSeen = %d, want 2 distinct", got)
	}
	ctx.Disk().TrackReads(f) // re-tracking resets
	if got := ctx.Disk().BlocksSeen(f); got != 0 {
		t.Errorf("reset tracking reports %d", got)
	}
}

func TestCompareHookObservesOutcomes(t *testing.T) {
	type pair struct{ lo, hi Elem }
	var got []pair
	SetCompareHook(func(lo, hi Elem) { got = append(got, pair{lo, hi}) })
	defer SetCompareHook(nil)
	a, b := Elem{Key: 1, Aux: 0}, Elem{Key: 2, Aux: 0}
	Less(a, b) // a < b
	Less(b, a) // still learns a < b, normalized
	Compare(b, a)
	Compare(a, a) // equal: no information, no callback
	Less(a, a)
	if len(got) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(got))
	}
	for i, p := range got {
		if p.lo != a || p.hi != b {
			t.Errorf("observation %d = (%v, %v), want (a, b)", i, p.lo, p.hi)
		}
	}
	SetCompareHook(nil)
	Less(a, b)
	if len(got) != 3 {
		t.Error("hook fired after removal")
	}
}

func TestDiskFootprintAccounting(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	a := BuildFile(ctx.Disk(), "a", seqElems(64)) // 8 blocks
	if got := ctx.Disk().LiveBlocks(); got != 8 {
		t.Fatalf("live = %d, want 8", got)
	}
	b, err := StoreAll(ctx, "b", seqElems(20)) // 3 more
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Disk().LiveBlocks(); got != 11 {
		t.Fatalf("live = %d, want 11", got)
	}
	a.Release()
	if got := ctx.Disk().LiveBlocks(); got != 3 {
		t.Fatalf("after release live = %d, want 3", got)
	}
	if got := ctx.Disk().PeakLiveBlocks(); got != 11 {
		t.Fatalf("peak = %d, want 11", got)
	}
	ctx.Disk().ResetPeakLive()
	if got := ctx.Disk().PeakLiveBlocks(); got != 3 {
		t.Fatalf("reset peak = %d, want 3", got)
	}
	b.Release()
	if got := ctx.Disk().LiveBlocks(); got != 0 {
		t.Fatalf("final live = %d", got)
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	if ctx.M() != 64 || ctx.B() != 8 || ctx.Config().M != 64 {
		t.Error("Ctx accessors broken")
	}
	if s := (Config{M: 64, B: 8}).String(); s != "M=64 B=8" {
		t.Errorf("Config.String = %q", s)
	}
	if s := (Stats{Reads: 2, Writes: 1}).String(); s != "reads=2 writes=1 total=3" {
		t.Errorf("Stats.String = %q", s)
	}
	if s := (Elem{Key: 3, Aux: 4}).String(); s != "(3,4)" {
		t.Errorf("Elem.String = %q", s)
	}
	f := ctx.Scratch("acc")
	if f.Name() == "" || f.Disk() != ctx.Disk() {
		t.Error("File accessors broken")
	}
	if NewAccountant(10).Limit() != 10 {
		t.Error("Accountant.Limit broken")
	}
	anon := ctx.Disk().NewFile("")
	if anon.Name() == "" {
		t.Error("anonymous file got no generated name")
	}
	w, err := NewWriter(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Error("fresh writer has error")
	}
	w.Close()
}

func TestNewUnmeteredCtx(t *testing.T) {
	ctx, err := NewUnmeteredCtx(Config{M: 16, B: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.AllocElems(1 << 20); err != nil {
		t.Errorf("unmetered ctx rejected allocation: %v", err)
	}
	if _, err := NewUnmeteredCtx(Config{M: 1, B: 8}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestWriterOnSealedFileFailsOnFlush(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("sealed")
	w, _ := NewWriter(ctx, f)
	for i := 0; i < 3; i++ {
		w.Append(Elem{Key: int64(i)})
	}
	if err := w.Close(); err != nil { // partial block seals the file
		t.Fatal(err)
	}
	w2, err := NewWriter(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		w2.Append(Elem{Key: int64(i)})
	}
	if err := w2.Close(); !errors.Is(err, ErrPartialBlock) {
		t.Errorf("writing past a sealed file: %v, want ErrPartialBlock", err)
	}
	if ctx.Mem().Used() != 0 {
		t.Errorf("leaked %d", ctx.Mem().Used())
	}
}

// TestStreamBuffersRecycled checks that a closed stream's block buffer is
// reused by the next one on the same Ctx, under the same memory charge:
// opening and closing a Reader and a Writer on a warm Ctx allocates nothing.
func TestStreamBuffersRecycled(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	src := BuildFile(ctx.Disk(), "src", seqElems(20))
	dst := ctx.Disk().NewFile("dst")
	cycle := func() {
		r, err := NewReader(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(ctx, dst)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Mem().Used(); got != 16 {
			t.Fatalf("two open streams charge %d, want 2B = 16", got)
		}
		if e, ok := r.Next(); !ok || e != (Elem{0, 0}) {
			t.Fatalf("Next = %v, %v", e, ok)
		}
		r.Close()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("open/read/close of a Reader and a Writer allocates %v times, want 0", allocs)
	}
	if got := ctx.Mem().Used(); got != 0 {
		t.Errorf("closed streams leave %d elements charged", got)
	}
	if peak := ctx.Mem().Peak(); peak != 16 {
		t.Errorf("peak charge %d, want 16", peak)
	}
}

// TestReaderChunk checks that Chunk hands out the unread rest of each block
// in order, after a partial Next, and reports exhaustion with an empty chunk.
func TestReaderChunk(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "f", seqElems(20))
	r, err := NewReader(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if e, _ := r.Next(); e.Key != 0 {
		t.Fatalf("first element %v", e)
	}
	var lens []int
	next := int64(1)
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		lens = append(lens, len(c))
		for _, e := range c {
			if e.Key != next {
				t.Fatalf("element %v, want key %d", e, next)
			}
			next++
		}
	}
	if r.Err() != nil || next != 20 {
		t.Fatalf("read through key %d, err %v", next, r.Err())
	}
	if want := []int{7, 8, 4}; !slices.Equal(lens, want) {
		t.Errorf("chunk lengths %v, want %v", lens, want)
	}
	if got := ctx.Disk().Stats().Reads; got != 3 {
		t.Errorf("reads = %d, want 3", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhaustion", r.Remaining())
	}
}
