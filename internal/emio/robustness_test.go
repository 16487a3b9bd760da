package emio

// Tests for the robustness layer: cooperative cancellation semantics, the
// disk-byte budget, the checkpoint journal's torn-write rule, manifest
// adoption, and the Writer.Close error-joining regression.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// --- cancellation ------------------------------------------------------------

func TestCancelStopsLogicalIO(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("victim")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	copy(buf, seqElems(8))
	if err := f.AppendBlock(buf); err != nil {
		t.Fatalf("append before cancel: %v", err)
	}

	cause := errors.New("operator said stop")
	ctx.Disk().Cancel(cause)

	if err := f.AppendBlock(buf); err == nil {
		t.Fatal("AppendBlock after cancel succeeded")
	} else {
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("AppendBlock after cancel: got %T (%v), want *CancelledError", err, err)
		}
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("cancelled append does not unwrap to ErrCancelled: %v", err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("cancelled append does not unwrap to its cause: %v", err)
		}
	}
	if _, err := f.ReadBlock(0, buf); err == nil {
		t.Fatal("ReadBlock after cancel succeeded")
	} else if !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled read: %v, want ErrCancelled", err)
	}

	// No logical I/O may be counted for rejected operations.
	st := ctx.Disk().Stats()
	if st.Reads != 0 || st.Writes != 1 {
		t.Errorf("stats after cancelled ops: %+v, want reads=0 writes=1", st)
	}
	f.Release()
}

func TestCancelFirstCauseWins(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	first := errors.New("first cause")
	second := errors.New("second cause")
	ctx.Disk().Cancel(first)
	ctx.Disk().Cancel(second)
	err := ctx.Disk().Cancelled()
	if err == nil {
		t.Fatal("Cancelled() nil after Cancel")
	}
	if !errors.Is(err, first) {
		t.Errorf("first cause lost: %v", err)
	}
	if errors.Is(err, second) {
		t.Errorf("second Cancel overwrote the first: %v", err)
	}
}

func TestClearCancelReArmsDisk(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	ctx.Disk().Cancel(nil)
	if ctx.Disk().Cancelled() == nil {
		t.Fatal("Cancelled() nil after bare Cancel")
	}
	if err := ctx.Err(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Ctx.Err() = %v, want ErrCancelled", err)
	}
	ctx.Disk().ClearCancel()
	if err := ctx.Disk().Cancelled(); err != nil {
		t.Fatalf("Cancelled() after ClearCancel: %v", err)
	}
	f := ctx.Scratch("revived")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	if err := f.AppendBlock(buf[:4]); err != nil {
		t.Fatalf("append after ClearCancel: %v", err)
	}
	f.Release()
}

// --- disk budget -------------------------------------------------------------

func TestDiskBudgetMetersAndEnforces(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	bb := d.BlockBytes()
	d.SetDiskBudget(3 * bb)

	f := ctx.Scratch("budgeted")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	copy(buf, seqElems(8))
	for i := 0; i < 3; i++ {
		if err := f.AppendBlock(buf); err != nil {
			t.Fatalf("append %d within budget: %v", i, err)
		}
	}
	if got := d.DiskBytes(); got != 3*bb {
		t.Errorf("DiskBytes = %d, want %d", got, 3*bb)
	}

	err := f.AppendBlock(buf)
	if err == nil {
		t.Fatal("append over budget succeeded")
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("over-budget append: got %T (%v), want *ResourceError", err, err)
	}
	if !errors.Is(err, ErrDiskBudget) {
		t.Errorf("over-budget append does not unwrap to ErrDiskBudget: %v", err)
	}
	if re.Used != 3*bb || re.Requested != bb || re.Budget != 3*bb {
		t.Errorf("ResourceError usage = used %d req %d budget %d, want %d/%d/%d",
			re.Used, re.Requested, re.Budget, 3*bb, bb, 3*bb)
	}
	// The rejected append counted no logical write and charged nothing.
	if got := d.Stats().Writes; got != 3 {
		t.Errorf("writes after rejection = %d, want 3", got)
	}
	if got := d.DiskBytes(); got != 3*bb {
		t.Errorf("DiskBytes after rejection = %d, want %d", got, 3*bb)
	}

	// Release credits everything back; the peak survives.
	f.Release()
	if got := d.DiskBytes(); got != 0 {
		t.Errorf("DiskBytes after release = %d, want 0", got)
	}
	if got := d.PeakDiskBytes(); got != 3*bb {
		t.Errorf("PeakDiskBytes = %d, want %d", got, 3*bb)
	}
}

func TestDiskBudgetReleasePrefixCredits(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	bb := d.BlockBytes()
	d.SetDiskBudget(4 * bb)

	f := ctx.Scratch("consumed")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	copy(buf, seqElems(8))
	for i := 0; i < 4; i++ {
		if err := f.AppendBlock(buf); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Consuming the first two blocks funds two more appends.
	f.ReleasePrefix(2)
	if got := d.DiskBytes(); got != 2*bb {
		t.Fatalf("DiskBytes after ReleasePrefix(2) = %d, want %d", got, 2*bb)
	}
	for i := 0; i < 2; i++ {
		if err := f.AppendBlock(buf); err != nil {
			t.Fatalf("append %d after prefix release: %v", i, err)
		}
	}
	if err := f.AppendBlock(buf); !errors.Is(err, ErrDiskBudget) {
		t.Fatalf("append past refunded budget: %v, want ErrDiskBudget", err)
	}
	f.Release()
	if got := d.DiskBytes(); got != 0 {
		t.Errorf("DiskBytes after release = %d, want 0", got)
	}
}

func TestConsumingReaderReclaimsPrefix(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	d.SetDiskBudget(100 * d.BlockBytes())

	const nb = 12
	f := ctx.Scratch("stream")
	buf, _ := ctx.AllocElems(8)
	copy(buf, seqElems(8))
	for i := 0; i < nb; i++ {
		if err := f.AppendBlock(buf); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ctx.FreeElems(buf)

	before := d.DiskBytes()
	r, err := NewReader(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	r.Consume()
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	r.Close()
	// A consuming read must have returned most of the file's blocks to the
	// budget while still behind the cursor (the lag window stays charged).
	lagged := (ConsumeLag + 1) * d.BlockBytes()
	if got := d.DiskBytes(); got > lagged {
		t.Errorf("DiskBytes after consuming read = %d, want <= %d (lag window); started at %d", got, lagged, before)
	}
	f.Release()
	if got := d.DiskBytes(); got != 0 {
		t.Errorf("DiskBytes after final release = %d, want 0", got)
	}
}

// --- journal -----------------------------------------------------------------

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		if err := j.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, p)
	}
	if j.Records() != 5 {
		t.Errorf("Records = %d, want 5", j.Records())
	}
	j.Close()

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The reopened journal appends after the replayed tail.
	if err := j2.Append([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	if j2.Records() != 6 {
		t.Errorf("Records after reopen+append = %d, want 6", j2.Records())
	}

	// Group commit: lazy appends interleave with synced ones in the same
	// frame format, and a replay after a Sync barrier sees all of them.
	for i := 0; i < 3; i++ {
		if err := j2.AppendLazy([]byte(fmt.Sprintf("lazy-%d", i))); err != nil {
			t.Fatalf("lazy append %d: %v", i, err)
		}
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, got3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(got3) != 9 {
		t.Fatalf("replayed %d records after lazy batch, want 9", len(got3))
	}
	if string(got3[8]) != "lazy-2" {
		t.Errorf("last replayed record = %q, want %q", got3[8], "lazy-2")
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("durable-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	durable, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		tail []byte
	}{
		{"partial-header", []byte{0x45, 0x4d}},
		{"garbage", []byte("this is not a frame at all")},
		{"valid-header-short-payload", func() []byte {
			// A plausible header promising more payload bytes than exist.
			b := make([]byte, 12, 14)
			copy(b, durable[:12])
			return append(b, 0xde, 0xad)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte{}, durable...), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if len(recs) != 3 {
				t.Fatalf("replayed %d records, want 3 (torn tail must not eat durable records)", len(recs))
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(durable) {
				t.Errorf("file is %d bytes after replay, want %d (tail truncated)", len(after), len(durable))
			}
		})
	}

	// A corrupt byte inside the LAST record's payload drops that record only.
	mangled := append([]byte{}, durable...)
	mangled[len(mangled)-1] ^= 0xff
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after payload corruption, want 2", len(recs))
	}
}

// --- manifest / adoption -----------------------------------------------------

func TestManifestAdoptRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "backing.dat")
	d, err := NewFileBackedDisk(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	f := ctx.Scratch("payload")
	elems := seqElems(20) // 2 full blocks + 1 partial
	buf, _ := ctx.AllocElems(8)
	for off := 0; off < len(elems); off += 8 {
		n := copy(buf, elems[off:])
		if err := f.AppendBlock(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	ctx.FreeElems(buf)
	m, err := f.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SyncBacking(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": a fresh process re-opens the same backing file and adopts.
	d2, err := NewFileBackedDiskResume(path, 8, Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := NewCtxWithDisk(Config{M: 64, B: 8}, d2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d2.AdoptFile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != int64(len(elems)) {
		t.Fatalf("adopted length %d, want %d", g.Len(), len(elems))
	}
	// New writes after adoption must not clobber adopted extents.
	h := ctx2.Scratch("post-crash")
	buf2, _ := ctx2.AllocElems(8)
	copy(buf2, seqElems(8))
	for i := 0; i < 4; i++ {
		if err := h.AppendBlock(buf2); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(ctx2, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, ok := r.Next()
		if !ok {
			if i != len(elems) {
				t.Fatalf("adopted file yielded %d elems, want %d", i, len(elems))
			}
			break
		}
		if e != elems[i] {
			t.Fatalf("adopted elem %d = %v, want %v", i, e, elems[i])
		}
	}
	r.Close()
	ctx2.FreeElems(buf2)
	h.Release()
	g.Release()
	d2.Close()
}

func TestManifestRejectsUnmanifestable(t *testing.T) {
	// Memory-backed files have no extents to describe.
	ctx := mustCtx(t, 64, 8)
	f := ctx.Scratch("mem")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	f.AppendBlock(buf)
	if _, err := f.Manifest(); err == nil {
		t.Error("Manifest of a memory-backed file succeeded")
	}
	// Prefix-consumed files have dead extents.
	pathDir := t.TempDir()
	d, err := NewFileBackedDisk(filepath.Join(pathDir, "b.dat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	fctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	g := fctx.Scratch("consumed")
	fbuf, _ := fctx.AllocElems(8)
	g.AppendBlock(fbuf)
	g.AppendBlock(fbuf)
	fctx.FreeElems(fbuf)
	g.ReleasePrefix(1)
	if _, err := g.Manifest(); err == nil {
		t.Error("Manifest of a prefix-consumed file succeeded")
	}
	d.Close()
}

// --- ENOSPC and error joining ------------------------------------------------

func TestInjectedENOSPCBecomesResourceError(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileBackedDisk(filepath.Join(dir, "full.dat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	inj.FailWriteErr(0, syscall.ENOSPC)
	d.SetInjector(inj)
	d.SetRetry(Retry{MaxAttempts: 3})

	f := ctx.Scratch("doomed")
	buf, _ := ctx.AllocElems(8)
	defer ctx.FreeElems(buf)
	err = f.AppendBlock(buf)
	if err == nil {
		t.Fatal("append on a full device succeeded")
	}
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("ENOSPC append: got %T (%v), want *ResourceError", err, err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("ResourceError does not unwrap to ENOSPC: %v", err)
	}
	if errors.Is(err, ErrDiskBudget) {
		t.Errorf("device ENOSPC misreported as a model budget rejection: %v", err)
	}
	// ENOSPC is permanent: the retry layer must not have burned attempts on it.
	if rs := d.RetryStats(); rs.Retries != 0 {
		t.Errorf("retry layer retried ENOSPC %d times; full disks do not heal", rs.Retries)
	}
	f.Release()
	d.Close()
}

func TestWriterCloseJoinsFlushAndSyncErrors(t *testing.T) {
	// Regression: Writer.Close used to return the flush error alone,
	// swallowing a sticky asynchronous write-behind failure that only
	// surfaces at Sync. Arrange both and require both in the joined error.
	dir := t.TempDir()
	d, err := newFileBackedDisk(filepath.Join(dir, "w.dat"), 8,
		Pipeline{Enabled: true}, shallow(prefetchDepth, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	inj.FailWriteErr(0, syscall.EIO) // first physical write fails permanently, async
	d.SetInjector(inj)
	d.SetDiskBudget(d.BlockBytes()) // the second (flush) append is rejected synchronously

	f := ctx.Scratch("maskcheck")
	w, err := NewWriter(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range seqElems(12) { // one full block (async EIO) + partial (budget reject)
		w.Append(e)
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close succeeded with both a failed flush and a failed physical write")
	}
	if !errors.Is(err, ErrDiskBudget) {
		t.Errorf("flush error (budget rejection) missing from Close error: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("async physical write error masked by flush error: %v", err)
	}
	f.Release()
	base := NumGoroutines()
	d.Close()
	RequireNoGoroutineLeaks(t, base)
}
