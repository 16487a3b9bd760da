package extsort

// Tests for the crash-safe checkpoint layer: journaled sorts must produce
// byte-identical output with identical logical I/O, resume must skip exactly
// the completed phases, and the disk-budget degradation must trade merge
// passes for footprint.

import (
	"errors"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"syscall"
	"testing"

	"repro/internal/emio"
)

// ckHarness is a file-backed sort job at the extsort layer: disk, ctx,
// staged input, and checkpoint — the pieces the empart job layer wires up.
type ckHarness struct {
	disk *emio.Disk
	ctx  *emio.Ctx
	in   *emio.File
	ck   *Checkpoint
}

func startCkJob(t *testing.T, backing, journal string, m, b int, elems []emio.Elem) *ckHarness {
	t.Helper()
	d, err := emio.NewFileBackedDisk(backing, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := emio.NewCtxWithDisk(emio.Config{M: m, B: b}, d)
	if err != nil {
		t.Fatal(err)
	}
	in := emio.BuildFile(d, "in", elems)
	ck, err := CreateCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := in.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SyncBacking(); err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteBegin(int64(len(elems)), m, b); err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteStage(mf); err != nil {
		t.Fatal(err)
	}
	return &ckHarness{disk: d, ctx: ctx, in: in, ck: ck}
}

func resumeCkJob(t *testing.T, backing, journal string, m, b int) *ckHarness {
	t.Helper()
	ck, err := OpenCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Begun || ck.Stage == nil {
		t.Fatalf("journal %s has no staged input to resume", journal)
	}
	d, err := emio.NewFileBackedDiskResume(backing, b, emio.Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := emio.NewCtxWithDisk(emio.Config{M: m, B: b}, d)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.AdoptFile(*ck.Stage, false)
	if err != nil {
		t.Fatal(err)
	}
	return &ckHarness{disk: d, ctx: ctx, in: in, ck: ck}
}

func sortedRef(elems []emio.Elem) []emio.Elem {
	want := append([]emio.Elem(nil), elems...)
	sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
	return want
}

func TestSortCheckpointedMatchesPlainSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{0, 1, 64, 1000, 2000} {
		elems := randKeys(n, rng)

		// Plain sort on a memory disk is the reference.
		refCtx := mustCtx(t, 64, 8)
		refIn := emio.BuildFile(refCtx.Disk(), "in", elems)
		refCtx.Disk().ResetStats()
		refOut, err := Sort(refCtx, refIn)
		if err != nil {
			t.Fatalf("n=%d: reference sort: %v", n, err)
		}
		refStats := refCtx.Disk().Stats()
		want := refOut.Snapshot()

		dir := t.TempDir()
		h := startCkJob(t, filepath.Join(dir, "b.dat"), filepath.Join(dir, "j.journal"), 64, 8, elems)
		h.disk.ResetStats()
		out, err := SortCheckpointed(h.ctx, h.in, h.ck)
		if err != nil {
			t.Fatalf("n=%d: checkpointed sort: %v", n, err)
		}
		got := out.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d elems out, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: output differs at %d: %v vs %v", n, i, got[i], want[i])
			}
		}
		// Journaling is physical fsync traffic only: the logical I/O of a
		// fresh checkpointed sort must be bit-identical to plain Sort.
		if st := h.disk.Stats(); st != refStats {
			t.Errorf("n=%d: checkpointed logical I/O %+v differs from plain sort %+v", n, st, refStats)
		}
		h.ck.Close()
		h.disk.Close()
	}
}

func TestSortCheckpointedResumesFromLastPhase(t *testing.T) {
	// M=64 B=8, n=1000: 125 input blocks; runs hold (M/B-2)·B = 48 elems
	// (6 blocks), so formation writes 125 blocks across 21 runs (ops 0-124);
	// merge fan-in (M-2B)/(B+4) = 4 gives three passes — pass 0 merges 20
	// runs and carries the 5-block tail singleton (120 writes, ops 125-244),
	// pass 1 writes 125 (ops 245-369), pass 2 writes 125 (ops 370-494). A
	// full sort writes 495 blocks. Kill the job at a scripted physical write
	// and check the resumed job performs exactly the writes of the
	// unfinished phases — completed runs and completed passes never repeat.
	const (
		m, b       = 64, 8
		n          = 1000
		fullWrites = 495
	)
	cases := []struct {
		name          string
		crashOp       int64 // physical write op that fails (post-staging)
		resumedWrites int64
		wantRuns      int  // journaled runs at crash time
		wantRunsDone  bool // run formation had committed
		wantLastPass  int  // last committed pass at crash time
	}{
		// Op 40 fails run 6 (ops 36-41) mid-write: six 6-block runs are
		// durable (288 elems), so resume re-scans from block 36 — 89
		// formation writes — then merges in full (370).
		{"mid-run-formation", 40, 459, 6, false, -1},
		// Op 150 is 25 writes into merge pass 0: all 21 runs durable, no
		// pass committed; resume redoes the whole merge (120 + 125 + 125).
		{"mid-first-merge-pass", 150, 370, 21, true, -1},
		// Op 300 is mid pass 1: pass 0 committed; resume runs passes 1-2.
		{"mid-middle-merge-pass", 300, 250, 21, true, 0},
		// Op 400 is mid pass 2: passes 0-1 committed; resume runs pass 2.
		{"mid-final-merge-pass", 400, 125, 21, true, 1},
	}
	rng := rand.New(rand.NewPCG(11, 11))
	elems := randKeys(n, rng)
	want := sortedRef(elems)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			backing := filepath.Join(dir, "b.dat")
			journal := filepath.Join(dir, "j.journal")
			h := startCkJob(t, backing, journal, m, b, elems)

			// A permanent device error at the scripted op stands in for
			// SIGKILL: the journal and backing file are left exactly as a
			// crash at that write would leave them (the cmd-level crash
			// harness covers the real-SIGKILL variant).
			inj := emio.NewInjector(1)
			inj.FailWriteErr(tc.crashOp, syscall.EIO)
			h.disk.SetInjector(inj)
			if _, err := SortCheckpointed(h.ctx, h.in, h.ck); err == nil {
				t.Fatal("sort survived its scripted crash point")
			}
			h.ck.Close()
			h.disk.Close()

			r := resumeCkJob(t, backing, journal, m, b)
			if len(r.ck.Runs) != tc.wantRuns || r.ck.RunsDone != tc.wantRunsDone || r.ck.LastPass != tc.wantLastPass {
				t.Fatalf("journal state at crash: runs=%d runsDone=%v lastPass=%d, want %d/%v/%d",
					len(r.ck.Runs), r.ck.RunsDone, r.ck.LastPass, tc.wantRuns, tc.wantRunsDone, tc.wantLastPass)
			}
			r.disk.ResetStats()
			out, err := SortCheckpointed(r.ctx, r.in, r.ck)
			if err != nil {
				t.Fatalf("resumed sort: %v", err)
			}
			got := out.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("resumed output has %d elems, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("resumed output differs at %d: %v vs %v", i, got[i], want[i])
				}
			}
			if w := r.disk.Stats().Writes; w != tc.resumedWrites {
				t.Errorf("resumed job wrote %d blocks, want exactly %d (full sort writes %d; completed phases must not repeat)",
					w, tc.resumedWrites, fullWrites)
			}

			// Resuming the finished job is free: the done record adopts the
			// output with zero logical I/O.
			r.ck.Close()
			r.disk.Close()
			r2 := resumeCkJob(t, backing, journal, m, b)
			if r2.ck.Done == nil {
				t.Fatal("done record missing after completed resume")
			}
			r2.disk.ResetStats()
			out2, err := SortCheckpointed(r2.ctx, r2.in, r2.ck)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			if st := r2.disk.Stats(); st.Reads != 0 || st.Writes != 0 {
				t.Errorf("second resume performed I/O %+v, want none", st)
			}
			if out2.Len() != int64(n) {
				t.Errorf("second resume output length %d, want %d", out2.Len(), n)
			}
			r2.ck.Close()
			r2.disk.Close()
		})
	}
}

func TestSortCheckpointedEmptyInput(t *testing.T) {
	dir := t.TempDir()
	h := startCkJob(t, filepath.Join(dir, "b.dat"), filepath.Join(dir, "j.journal"), 64, 8, nil)
	out, err := SortCheckpointed(h.ctx, h.in, h.ck)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty sort produced %d elems", out.Len())
	}
	if h.ck.Done == nil {
		t.Error("empty sort left no done record")
	}
	h.ck.Close()
	h.disk.Close()
}

func TestBudgetDegradationTradesPassesForFootprint(t *testing.T) {
	// n=1000 at B=8 stages 125 input blocks and forms 125 run blocks: the
	// steady-state footprint is 250 blocks. A budget of 250 + 6 blocks leaves
	// 6 blocks of merge headroom, which degradeFanIn turns into fan-in 2
	// (each consuming reader holds lag+1 = 2 blocks, plus the output buffer):
	// the merge takes 4 passes instead of 2 but stays under the quota.
	const n = 1000
	rng := rand.New(rand.NewPCG(3, 3))
	elems := randKeys(n, rng)
	want := sortedRef(elems)

	plain := mustCtx(t, 64, 8)
	plainIn := emio.BuildFile(plain.Disk(), "in", elems)
	plain.Disk().ResetStats()
	if _, err := Sort(plain, plainIn); err != nil {
		t.Fatal(err)
	}
	plainWrites := plain.Disk().Stats().Writes

	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	in := emio.BuildFile(d, "in", elems)
	budget := (250 + 6) * d.BlockBytes()
	d.SetDiskBudget(budget)
	d.ResetStats()
	out, err := Sort(ctx, in)
	if err != nil {
		t.Fatalf("budgeted sort: %v", err)
	}
	got := out.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("budgeted sort output has %d elems, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budgeted output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if peak := d.PeakLiveBlocks() * d.BlockBytes(); peak > budget {
		t.Errorf("peak disk %d exceeded budget %d", peak, budget)
	}
	if w := d.Stats().Writes; w <= plainWrites {
		t.Errorf("degraded sort wrote %d blocks vs plain %d; expected extra merge passes", w, plainWrites)
	}
}

func TestImpossibleBudgetFailsTyped(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	elems := randKeys(1000, rng)
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	in := emio.BuildFile(d, "in", elems)
	// 100 blocks cannot even hold the formed runs (125 blocks): degradation
	// has nothing to shrink, so the quota must reject with a typed error.
	d.SetDiskBudget(100 * d.BlockBytes())
	_, err := Sort(ctx, in)
	if err == nil {
		t.Fatal("sort under an impossible budget succeeded")
	}
	var re *emio.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("got %T (%v), want *ResourceError", err, err)
	}
	if !errors.Is(err, emio.ErrDiskBudget) {
		t.Errorf("budget failure does not unwrap to ErrDiskBudget: %v", err)
	}
}
