package emio

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emio/metrics"
)

// shallow returns engine depths with a read-ahead window of prefetch blocks
// and staging batches of queue blocks, so a test's few blocks cross their
// seams.
func shallow(prefetch, queue int) depths {
	return depths{prefetch: prefetch, queue: queue, uring: uringDepth}
}

// engineCtx builds a Ctx over a file-backed disk with engine depths dep.
func engineCtx(t *testing.T, m, b int, dep depths) *Ctx {
	t.Helper()
	d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "pipe.dat"), b, Pipeline{}, dep, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctx, err := NewCtxWithDisk(Config{M: m, B: b}, d)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestPipelineRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 4096} {
		for _, p := range []depths{engineDepths, shallow(1, queueDepth), shallow(4, 2)} {
			ctx := engineCtx(t, 64, 8, p)
			in := seqElems(n)
			f, err := StoreAll(ctx, "rt", in)
			if err != nil {
				t.Fatalf("n=%d p=%+v: %v", n, p, err)
			}
			got := f.Snapshot()
			if len(got) != n {
				t.Fatalf("n=%d p=%+v: got %d", n, p, len(got))
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("n=%d p=%+v: differs at %d: %v vs %v", n, p, i, got[i], in[i])
				}
			}
			// A second sequential pass exercises the read-ahead chain.
			r, err := NewReader(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				e, ok := r.Next()
				if !ok {
					break
				}
				if e != in[i] {
					t.Fatalf("n=%d p=%+v: reader differs at %d", n, p, i)
				}
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			r.Close()
		}
	}
}

func TestPipelineRandomAccessFallsBack(t *testing.T) {
	// Random block reads must bypass the staging window and stay correct.
	ctx := engineCtx(t, 64, 8, shallow(4, queueDepth))
	in := seqElems(256)
	f, err := StoreAll(ctx, "rnd", in)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Elem, 8)
	for _, blk := range []int{17, 3, 30, 3, 0, 31, 16, 1} {
		n, err := f.ReadBlock(blk, buf)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if want := in[blk*8+j]; buf[j] != want {
				t.Fatalf("block %d elem %d: %v want %v", blk, j, buf[j], want)
			}
		}
	}
	// Then a full sequential scan re-primes read-ahead and must agree too.
	got := f.Snapshot()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("post-random scan differs at %d", i)
		}
	}
}

func TestPipelineInterleavedReadWrite(t *testing.T) {
	// A merge-like pattern: read one file while write-behind is filling
	// another, then read back the freshly written file (forcing a drain).
	ctx := engineCtx(t, 128, 8, shallow(4, 4))
	in := seqElems(512)
	src, err := StoreAll(ctx, "src", in)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Copy(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	got := dup.Snapshot()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("copy differs at %d: %v vs %v", i, got[i], in[i])
		}
	}
	dup.Release()
	src.Release()
}

func TestBulkCodecMatchesPortable(t *testing.T) {
	// The unsafe bulk codec and the portable loop must produce identical
	// bytes and identical decoded elements for the same data.
	elems := []Elem{{0, 0}, {1, -1}, {-(1 << 62), 1 << 62}, {42, 7}, {-9, -9}}
	raw := make([]byte, len(elems)*elemBytes)
	rawPortable := make([]byte, len(elems)*elemBytes)
	encodeElems(raw, elems, true)
	encodeElems(rawPortable, elems, false)
	for i := range raw {
		if raw[i] != rawPortable[i] {
			t.Fatalf("encoded byte %d differs: %#x vs %#x", i, raw[i], rawPortable[i])
		}
	}
	dec := make([]Elem, len(elems))
	decPortable := make([]Elem, len(elems))
	decodeElems(dec, raw, true)
	decodeElems(decPortable, rawPortable, false)
	for i := range elems {
		if dec[i] != elems[i] || decPortable[i] != elems[i] {
			t.Fatalf("decode %d: bulk %v portable %v want %v", i, dec[i], decPortable[i], elems[i])
		}
	}
}

func TestForcePortableCodecRoundTrip(t *testing.T) {
	// A file store forced onto the portable codec must still round-trip:
	// the fallback path is live, not dead code.
	forcePortableCodec = true
	defer func() { forcePortableCodec = false }()
	ctx := engineCtx(t, 64, 8, engineDepths)
	in := seqElems(300)
	f, err := StoreAll(ctx, "portable", in)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Snapshot()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("portable round-trip differs at %d", i)
		}
	}
}

func TestFreeExtentReuseCapsBackingFile(t *testing.T) {
	// Scratch-heavy create/release cycles must not grow the backing file
	// beyond the peak live footprint (the old store leaked extents forever).
	d, err := NewFileBackedDisk(filepath.Join(t.TempDir(), "cap.dat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400 // 50 blocks per cycle
	for cycle := 0; cycle < 20; cycle++ {
		f, err := StoreAll(ctx, fmt.Sprintf("c%d", cycle), seqElems(n))
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	want := int64(n * elemBytes) // one cycle's worth
	if got := d.BackingBytes(); got != want {
		t.Errorf("backing file high-water %d bytes, want %d (extents not reused)", got, want)
	}
	if got := d.FreeExtents(); got != 50 {
		t.Errorf("%d free extents, want 50", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeExtentReuseKeepsDataIntact(t *testing.T) {
	// Interleave live files with release/reuse cycles: reused extents must
	// never clobber live data (the write-behind drain on release guards this).
	ctx := engineCtx(t, 128, 8, shallow(prefetchDepth, 2))
	keep := make([]*File, 0, 8)
	want := make([][]Elem, 0, 8)
	for i := 0; i < 8; i++ {
		scratch, err := StoreAll(ctx, "tmp", seqElems(96))
		if err != nil {
			t.Fatal(err)
		}
		elems := seqElems(64)
		for j := range elems {
			elems[j].Key += int64(1000 * i)
		}
		f, err := StoreAll(ctx, "keep", elems)
		if err != nil {
			t.Fatal(err)
		}
		scratch.Release()
		keep = append(keep, f)
		want = append(want, elems)
	}
	for i, f := range keep {
		got := f.Snapshot()
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("file %d corrupted at %d: %v want %v", i, j, got[j], want[i][j])
			}
		}
		f.Release()
	}
}

func TestConsumingReadExtentsReusedUnderReadAhead(t *testing.T) {
	// A consuming read frees extents more than ConsumeLag blocks behind its
	// cursor while its next read-ahead window is in flight, and the appends
	// of a merge-like copy take those extents at once, staging writes to
	// them. Neither the data read nor the data written may be damaged.
	for _, dep := range []depths{shallow(2, 1), shallow(3, 2), shallow(4, 3)} {
		ctx := engineCtx(t, 128, 8, dep)
		d := ctx.Disk()
		reg := metrics.New()
		d.EnableMetrics(reg)
		const nb = 64
		in := seqElems(nb * 8)
		src, err := StoreAll(ctx, "src", in)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(); err != nil {
			t.Fatal(err)
		}
		out := ctx.Scratch("out")
		w, err := NewWriter(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		r.Consume()
		for i := 0; ; i++ {
			e, ok := r.Next()
			if !ok {
				break
			}
			if e != in[i] {
				t.Fatalf("dep %+v: consuming read differs at %d: %v want %v", dep, i, e, in[i])
			}
			w.Append(Elem{Key: -e.Key, Aux: e.Aux})
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if snap.Counter("empart_prefetch_hits_total") == 0 || snap.Counter("empart_extent_reuses_total") == 0 {
			t.Fatalf("dep %+v: read-ahead hits %d, extent reuses %d; the test needs both",
				dep, snap.Counter("empart_prefetch_hits_total"), snap.Counter("empart_extent_reuses_total"))
		}
		if got, most := d.BackingBytes(), int64(nb+8)*8*elemBytes; got > most {
			t.Errorf("dep %+v: backing file %d bytes, want <= %d (freed extents not reused)", dep, got, most)
		}
		got := out.Snapshot()
		for i := range in {
			if want := (Elem{Key: -in[i].Key, Aux: in[i].Aux}); got[i] != want {
				t.Fatalf("dep %+v: output differs at %d: %v want %v", dep, i, got[i], want)
			}
		}
		src.Release()
		out.Release()
	}
}

func TestDirectIORoundTrip(t *testing.T) {
	if !DirectIOSupported(t.TempDir()) {
		t.Skip("O_DIRECT not supported on this filesystem")
	}
	// Block size 8 elems = 128 bytes, well under the 512-byte direct granule,
	// so every transfer exercises the padding path; odd n adds partial blocks.
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
		for _, tc := range []struct {
			p   Pipeline
			dep depths
		}{
			{Pipeline{Direct: true}, engineDepths},
			{Pipeline{Direct: true}, shallow(4, 2)},
		} {
			p := tc.p
			d, err := newFileBackedDisk(
				filepath.Join(t.TempDir(), "direct.dat"), 8, p, tc.dep, false)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
			if err != nil {
				t.Fatal(err)
			}
			in := seqElems(n)
			f, err := StoreAll(ctx, "rt", in)
			if err != nil {
				t.Fatalf("n=%d p=%+v: %v", n, p, err)
			}
			got := f.Snapshot()
			if len(got) != n {
				t.Fatalf("n=%d p=%+v: got %d elems", n, p, len(got))
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("n=%d p=%+v: differs at %d: %v vs %v", n, p, i, got[i], in[i])
				}
			}
			if bb := d.BackingBytes(); bb%directAlign != 0 {
				t.Fatalf("n=%d p=%+v: backing bytes %d not %d-aligned", n, p, bb, directAlign)
			}
			// Release and rewrite: padded extents must be reusable without
			// corrupting the replacement file.
			f.Release()
			f2, err := StoreAll(ctx, "rt2", in)
			if err != nil {
				t.Fatal(err)
			}
			got2 := f2.Snapshot()
			for i := range in {
				if got2[i] != in[i] {
					t.Fatalf("n=%d p=%+v: reuse differs at %d", n, p, i)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAsyncWriteErrorSurfacesAtNextOpAndClose(t *testing.T) {
	// A physical write failure below the write-behind queue must surface
	// exactly once: at the next operation on the file, at Writer.Close, or —
	// only if nothing else delivered it — at Disk.Close.
	errDevice := errors.New("device error")
	newFaulty := func(failFrom int64) (*Disk, *Ctx) {
		d, err := newFileBackedDisk(
			filepath.Join(t.TempDir(), "err.dat"), 8, Pipeline{}, shallow(prefetchDepth, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		st := d.store.(*fileStore)
		st.testWriteErr = func(off int64) error {
			if off >= failFrom {
				return errDevice
			}
			return nil
		}
		ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
		if err != nil {
			t.Fatal(err)
		}
		return d, ctx
	}

	t.Run("writer-close", func(t *testing.T) {
		d, ctx := newFaulty(0)
		f := ctx.Scratch("w")
		w, err := NewWriter(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range seqElems(64) {
			w.Append(e)
		}
		if err := w.Close(); !errors.Is(err, errDevice) {
			t.Fatalf("Writer.Close error = %v, want the device error", err)
		}
		// Writer.Close reported the failure; Disk.Close must not re-report
		// it as a second distinct error.
		if err := d.Close(); err != nil {
			t.Fatalf("Disk.Close after a delivered error = %v, want nil", err)
		}
	})

	t.Run("next-read", func(t *testing.T) {
		d, ctx := newFaulty(0)
		f := ctx.Scratch("r")
		buf := seqElems(8)
		if err := f.AppendBlock(buf); err != nil {
			t.Fatal(err)
		}
		// The read drains pending writes first, so the failure lands here.
		if _, err := f.ReadBlock(0, make([]Elem, 8)); !errors.Is(err, errDevice) {
			t.Fatalf("ReadBlock error = %v, want the device error", err)
		}
		d.Close()
	})

	t.Run("error-is-per-file", func(t *testing.T) {
		d, ctx := newFaulty(0)
		bad := ctx.Scratch("bad")
		if err := bad.AppendBlock(seqElems(8)); err != nil {
			t.Fatal(err)
		}
		if err := bad.Sync(); !errors.Is(err, errDevice) {
			t.Fatalf("Sync on the failed file = %v, want the device error", err)
		}
		// Subsequent appends to the poisoned file keep failing...
		if err := bad.AppendBlock(seqElems(8)); !errors.Is(err, errDevice) {
			t.Fatalf("append after failure = %v, want the device error", err)
		}
		// ...and having been delivered twice already, the failure does not
		// come back a third time at Disk.Close.
		if err := d.Close(); err != nil {
			t.Fatalf("Disk.Close after a delivered error = %v, want nil", err)
		}
	})
}

func TestAsyncWriteErrorNamesFileAndOffset(t *testing.T) {
	// A sticky physical write error can surface long after the enqueue — at
	// Disk.Close, an operator's only remaining context. The wrapped error must
	// therefore name the failing file and its backing byte offset.
	errDevice := errors.New("device error")
	d, err := newFileBackedDisk(
		filepath.Join(t.TempDir(), "err.dat"), 8, Pipeline{}, shallow(prefetchDepth, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	const failAt = int64(2 * 8 * elemBytes) // third block's extent
	st := d.store.(*fileStore)
	st.testWriteErr = func(off int64) error {
		if off == failAt {
			return errDevice
		}
		return nil
	}
	el, err := NewEventLog(LogConfig{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachEventLog(el)
	ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	f := ctx.Scratch("sticky")
	for i := 0; i < 4; i++ {
		if err := f.AppendBlock(seqElems(8)); err != nil {
			t.Fatal(err)
		}
	}
	cerr := d.Close()
	if !errors.Is(cerr, errDevice) {
		t.Fatalf("Disk.Close error = %v, want the device error", cerr)
	}
	msg := cerr.Error()
	if !strings.Contains(msg, f.Name()) {
		t.Errorf("Close error %q does not name the failing file %q", msg, f.Name())
	}
	if !strings.Contains(msg, fmt.Sprintf("offset %d", failAt)) {
		t.Errorf("Close error %q does not name the failing offset %d", msg, failAt)
	}
	// The event log records the failure when it happens, with the same
	// attribution, and again when Close surfaces it.
	var recorded, surfaced bool
	for _, ev := range el.Events() {
		switch ev.Msg {
		case "write-behind failure recorded":
			recorded = ev.Attrs["file"] == f.Name() && ev.Attrs["off"] == failAt
		case "unreported write-behind failure surfaced at close":
			surfaced = true
		}
	}
	if !recorded {
		t.Errorf("event log lacks the failure record for %s at offset %d: %+v", f.Name(), failAt, el.Events())
	}
	if !surfaced {
		t.Errorf("event log lacks the close-time surfacing record: %+v", el.Events())
	}
}

func TestPipelineStatsMatchSynchronous(t *testing.T) {
	// The same operation sequence must produce bit-identical Stats on the
	// file store, at engine and shallow depths, and on the memory backend.
	run := func(ctx *Ctx) Stats {
		in := seqElems(500)
		f := BuildFile(ctx.Disk(), "x", in)
		ctx.Disk().ResetStats()
		dup, err := Copy(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := LoadAll(ctx, dup)
		if err != nil {
			t.Fatal(err)
		}
		ctx.FreeElems(buf)
		dup.Release()
		return ctx.Disk().Stats()
	}
	base := run(mustCtx(t, 1024, 8))
	if got := run(fileBackedCtx(t, 1024, 8)); got != base {
		t.Errorf("file backend %v != memory %v", got, base)
	}
	if got := run(engineCtx(t, 1024, 8, shallow(4, 2))); got != base {
		t.Errorf("file backend at shallow depths %v != memory %v", got, base)
	}
}

func TestReaderRemainingO1Semantics(t *testing.T) {
	// Remaining's O(1) counter must agree with the spec at every step,
	// including partial trailing blocks and post-EOF.
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "rem", seqElems(21)) // 2 full blocks + 5
	r, err := NewReader(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for want := int64(21); ; want-- {
		if got := r.Remaining(); got != want {
			t.Fatalf("Remaining=%d, want %d", got, want)
		}
		if _, ok := r.Next(); !ok {
			if want != 0 {
				t.Fatalf("stream ended with Remaining=%d", want)
			}
			break
		}
	}
	if got := r.Remaining(); got != 0 {
		t.Fatalf("Remaining after EOF = %d", got)
	}
}

func TestMemStorePoolReusesBlocks(t *testing.T) {
	// Released memStore blocks must be recycled: after a release, an append
	// must not allocate a fresh block slice.
	d := NewDisk(8)
	ms := d.store.(*memStore)
	f := BuildFile(d, "a", seqElems(64))
	f.Release()
	if got := len(ms.free); got != 8 {
		t.Fatalf("free list holds %d blocks after release, want 8", got)
	}
	BuildFile(d, "b", seqElems(64))
	if got := len(ms.free); got != 0 {
		t.Fatalf("free list holds %d blocks after reuse, want 0", got)
	}
}
