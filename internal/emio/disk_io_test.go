package emio

import (
	"errors"
	"path/filepath"
	"testing"
)

// Shard I/O coalescing: two shards of one pipelined file disk, appending in
// lockstep the way two workers interleave, must each still get contiguous
// extents, so their blocks reach the backing file in queue-depth-block writes
// and come back in prefetch-depth-block reads — with logical accounting and
// contents unchanged, and every extent back on the free list at the end.
func TestShardIOCoalescesInterleavedShards(t *testing.T) {
	const (
		b     = 8
		nblk  = 64
		depth = 4
	)
	pipes := []struct {
		name string
		pipe Pipeline
	}{
		{"buffered", Pipeline{Enabled: true}},
		{"direct-uring", Pipeline{Enabled: true, Direct: true, Uring: true}},
	}
	for _, tc := range pipes {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.pipe.Direct && !DirectIOSupported(dir) {
				t.Skip("O_DIRECT not supported on this filesystem")
			}
			d, err := newFileBackedDisk(filepath.Join(dir, "s.dat"), b, tc.pipe, shallow(depth, depth), false)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			var (
				shards [2]*Disk
				ctxs   [2]*Ctx
				files  [2]*File
				ws     [2]*Writer
				data   [2][]Elem
			)
			for k := range shards {
				if shards[k], err = d.NewShard(k); err != nil {
					t.Fatal(err)
				}
				if ctxs[k], err = NewCtxWithDisk(Config{M: 64, B: b}, shards[k]); err != nil {
					t.Fatal(err)
				}
				files[k] = ctxs[k].Scratch("out")
				if ws[k], err = NewWriter(ctxs[k], files[k]); err != nil {
					t.Fatal(err)
				}
				data[k] = seqElems(nblk*b - 3) // a short last block too
				for i := range data[k] {
					data[k][i].Aux = int64(k)
				}
			}
			p0 := d.PhysStats()
			for i := range data[0] {
				for k := range ws {
					ws[k].Append(data[k][i])
				}
			}
			for k := range ws {
				if err := ws[k].Close(); err != nil {
					t.Fatal(err)
				}
				if err := shards[k].Settle(); err != nil {
					t.Fatal(err)
				}
			}
			// The short last block takes a one-off extent outside the
			// reservation; with padding it may also fall in the run.
			if got, max := d.PhysStats().Writes-p0.Writes, int64(2*(nblk/depth+1)); got > max {
				t.Errorf("%d physical writes for 2x%d blocks, want <= %d", got, nblk, max)
			}

			p1 := d.PhysStats()
			for k := range files {
				r, err := NewReader(ctxs[k], files[k])
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range data[k] {
					got, ok := r.Next()
					if !ok || got != want {
						t.Fatalf("shard %d element %d = %v (ok %v), want %v", k, i, got, ok, want)
					}
				}
				if _, ok := r.Next(); ok || r.Err() != nil {
					t.Fatalf("shard %d: reader not cleanly exhausted: %v", k, r.Err())
				}
				r.Close()
			}
			if got, max := d.PhysStats().Reads-p1.Reads, int64(2*(nblk/depth+1)); got > max {
				t.Errorf("%d physical reads for 2x%d blocks, want <= %d", got, nblk, max)
			}

			// Random access still works and misses the windows cleanly.
			buf := make([]Elem, b)
			for _, i := range []int{5, 0, nblk - 1, 17} {
				n, err := files[1].ReadBlock(i, buf)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if buf[j] != data[1][i*b+j] {
						t.Fatalf("block %d elem %d = %v, want %v", i, j, buf[j], data[1][i*b+j])
					}
				}
			}
			for k, wantReads := range []int64{nblk, nblk + 4} {
				if st := shards[k].Stats(); st.Writes != nblk || st.Reads != wantReads {
					t.Errorf("shard %d logical stats %+v, want %d writes and %d reads", k, st, nblk, wantReads)
				}
			}
			for k := range files {
				files[k].Release()
				if err := shards[k].Settle(); err != nil {
					t.Fatal(err)
				}
			}
			fs := d.store.(*fileStore)
			full := int64(fs.pad(b * elemBytes))
			short := int64(fs.pad((b - 3) * elemBytes))
			shortExtents := int64(0)
			if short != full {
				shortExtents = 2
			}
			if free := d.FreeExtents(); (free-shortExtents)*full+shortExtents*short != d.BackingBytes() {
				t.Errorf("%d free extents do not cover the %d-byte backing file: a reservation leaked", free, d.BackingBytes())
			}
		})
	}
}

// Extents released out of offset order — two files whose blocks alternated
// in the backing file, freed one after the other — leave no two adjacent
// extents next to each other in the free queue, so a reservation would get
// one extent. OrderFreeExtents must give the whole span back as one run.
func TestOrderFreeExtentsRestoresRuns(t *testing.T) {
	d, err := NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "o.dat"), 8, Pipeline{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fs := d.store.(*fileStore)
	bb := fs.pad(8 * elemBytes)
	const n = 16
	off, got := fs.allocRun(bb, n)
	if got != n {
		t.Fatalf("fresh reservation of %d extents, want %d", got, n)
	}
	for _, parity := range []int{1, 0} {
		for k := parity; k < n; k += 2 {
			fs.freeRun(off+int64(k*bb), bb, 1)
		}
	}
	d.OrderFreeExtents()
	if roff, rn := fs.allocRun(bb, n); roff != off || rn != n {
		t.Errorf("reservation after ordering = %d extents at %d, want %d at %d", rn, roff, n, off)
	}
	if free := d.FreeExtents(); free != 0 {
		t.Errorf("%d extents still free, want 0", free)
	}
}

// With a fault injector armed, a disk must issue one transfer per block so
// that scripted schedules keyed by physical-op index keep their meaning. The
// parent disk and a shard sub-disk run the same engine, so both must.
func TestShardIOBypassedUnderInjector(t *testing.T) {
	const b, nblk = 8, 16
	for _, owner := range []string{"shard", "parent"} {
		t.Run(owner, func(t *testing.T) {
			d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "s.dat"), b,
				Pipeline{Enabled: true}, shallow(4, 4), false)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			sd := d
			if owner == "shard" {
				if sd, err = d.NewShard(0); err != nil {
					t.Fatal(err)
				}
			}
			sd.SetInjector(NewInjector(1))
			ctx, err := NewCtxWithDisk(Config{M: 64, B: b}, sd)
			if err != nil {
				t.Fatal(err)
			}
			f := ctx.Scratch("f")
			p0 := d.PhysStats()
			for i := 0; i < nblk; i++ {
				if err := f.AppendBlock(seqElems(b)); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]Elem, b)
			for i := 0; i < nblk; i++ {
				if _, err := f.ReadBlockSequential(i, buf); err != nil {
					t.Fatal(err)
				}
			}
			if got := d.PhysStats(); got.Writes-p0.Writes != nblk || got.Reads-p0.Reads != nblk {
				t.Errorf("physical %+v after %d block writes and reads, want one transfer per block", got, nblk)
			}
			f.Release()
			if err := sd.Settle(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A physical failure of a staged batch write must surface exactly once, as a
// typed write fault naming the file: at the next operation on the file
// (here Writer.Close, which syncs), or — when nothing else reports it — at
// Settle, which the parallel engine runs at the end of every shard task.
func TestShardIOStagedWriteFailure(t *testing.T) {
	errDevice := errors.New("device error")
	newShard := func(t *testing.T) (*Disk, *Ctx) {
		d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "e.dat"), 8,
			Pipeline{Enabled: true}, shallow(prefetchDepth, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		d.store.(*fileStore).testWriteErr = func(int64) error { return errDevice }
		sd, err := d.NewShard(0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, sd)
		if err != nil {
			t.Fatal(err)
		}
		return sd, ctx
	}
	check := func(t *testing.T, err error, f *File) {
		t.Helper()
		var fe *FaultError
		if !errors.Is(err, errDevice) || !errors.As(err, &fe) || fe.File != f.Name() {
			t.Fatalf("error = %v, want a write fault on %s wrapping the device error", err, f.Name())
		}
	}

	t.Run("writer-close", func(t *testing.T) {
		sd, ctx := newShard(t)
		f := ctx.Scratch("w")
		w, err := NewWriter(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range seqElems(40) {
			w.Append(e)
		}
		check(t, w.Close(), f)
		if err := sd.Settle(); err != nil {
			t.Fatalf("Settle after a delivered failure = %v, want nil", err)
		}
		f.Release()
	})

	t.Run("settle", func(t *testing.T) {
		sd, ctx := newShard(t)
		f := ctx.Scratch("s")
		if err := f.AppendBlock(seqElems(8)); err != nil {
			t.Fatal(err)
		}
		check(t, sd.Settle(), f)
		if err := sd.Settle(); err != nil {
			t.Fatalf("second Settle = %v, want nil (reported once)", err)
		}
		f.Release()
	})
}
