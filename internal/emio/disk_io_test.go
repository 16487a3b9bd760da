package emio

import (
	"errors"
	"path/filepath"
	"testing"
)

// With a fault injector armed, a disk must issue one transfer per block so
// that scripted schedules keyed by physical-op index keep their meaning.
func TestShardIOBypassedUnderInjector(t *testing.T) {
	const b, nblk = 8, 16
	t.Run("parent", func(t *testing.T) {
		d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "s.dat"), b,
			Pipeline{}, shallow(4, 4), false)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.SetInjector(NewInjector(1))
		ctx, err := NewCtxWithDisk(Config{M: 64, B: b}, d)
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
	})
}

// A physical failure of a staged batch write must surface exactly once, as a
// typed write fault naming the file: at the next operation on the file
// (here Writer.Close, which syncs), and not again when the disk closes.
// TestAsyncWriteErrorSurfacesAtNextOpAndClose covers the failure that only
// Close reports.
func TestShardIOStagedWriteFailure(t *testing.T) {
	errDevice := errors.New("device error")
	t.Run("writer-close", func(t *testing.T) {
		d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "e.dat"), 8,
			Pipeline{}, shallow(prefetchDepth, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		d.store.(*fileStore).testWriteErr = func(int64) error { return errDevice }
		ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
		if err != nil {
			t.Fatal(err)
		}
		f := ctx.Scratch("w")
		w, err := NewWriter(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range seqElems(40) {
			w.Append(e)
		}
		err = w.Close()
		var fe *FaultError
		if !errors.Is(err, errDevice) || !errors.As(err, &fe) || fe.File != f.Name() {
			t.Fatalf("error = %v, want a write fault on %s wrapping the device error", err, f.Name())
		}
		f.Release()
		if err := d.Close(); err != nil {
			t.Fatalf("Close after a delivered failure = %v, want nil", err)
		}
	})
}
