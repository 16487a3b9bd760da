package empar

// Engine-level bit-identity: across memory configurations (spanning the
// sharded path, both fallbacks and a tiny-B machine), the engine's output
// must equal the sequential extsort output byte for byte at every worker
// count, and the parent context must balance to zero live memory and blocks
// once the caller releases its files.

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/emio"
	"repro/internal/extsort"
)

func TestEngineMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ m, b int; n int64; w int }{
		{1024, 32, 10000, 1},
		{1024, 32, 10000, 2},
		{1024, 32, 10000, 4},
		{1024, 32, 63, 3},    // tiny: sequential fallback
		{1024, 32, 0, 2},     // empty
		{192, 32, 5000, 2},   // S=1 (M < 6*2*B=384? 192<384 yes) fallback
		{64, 1, 3000, 8},     // tiny B
		{4096, 8, 20000, 8},  // S=8
	} {
		t.Run(fmt.Sprintf("M%d_B%d_N%d_w%d", tc.m, tc.b, tc.n, tc.w), func(t *testing.T) {
			mk := func() (*emio.Ctx, *emio.File) {
				ctx, err := emio.NewCtx(emio.Config{M: tc.m, B: tc.b})
				if err != nil { t.Fatal(err) }
				elems := make([]emio.Elem, tc.n)
				rng := uint64(12345)
				for i := range elems {
					rng = rng*6364136223846793005 + 1442695040888963407
					elems[i] = emio.Elem{Key: int64(rng >> 30), Aux: int64(i)}
				}
				return ctx, emio.BuildFile(ctx.Disk(), "in", elems)
			}
			sctx, sin := mk()
			want, err := extsort.Sort(sctx, sin)
			if err != nil { t.Fatal(err) }
			wantSnap := want.Snapshot()

			pctx, pin := mk()
			eng, err := New(pctx, tc.w)
			if err != nil { t.Fatal(err) }
			got, err := eng.Sort(pin)
			if err != nil { t.Fatal(err) }
			gotSnap := got.Snapshot()
			if len(gotSnap) != len(wantSnap) { t.Fatalf("len %d want %d", len(gotSnap), len(wantSnap)) }
			for i := range gotSnap {
				if gotSnap[i] != wantSnap[i] { t.Fatalf("elem %d: %v want %v", i, gotSnap[i], wantSnap[i]) }
			}
			// hygiene: shard work fully folded, parent accounting balanced
			got.Release()
			pin.Release()
			if used := pctx.Mem().Used(); used != 0 {
				t.Fatalf("parent mem used %d after release", used)
			}
			if lb := pctx.Disk().LiveBlocks(); lb != 0 {
				t.Fatalf("parent live blocks %d after release", lb)
			}
			t.Logf("report: %+v", eng.LastReport())
		})
	}
}

// Every file a shard creates must be released by the time Sort returns, on
// every backend, and repeated sorts on a file backing must reuse the space
// the previous one freed. (The final range merge once kept its input
// intermediates, leaking about one input's worth of extents per call.) The
// backing file may still grow a little after the first call: which free
// extents are contiguous enough for a reservation depends on the schedule.
func TestEngineReleasesShardFiles(t *testing.T) {
	const m, b, n = 4096, 32, 40000
	elems := make([]emio.Elem, n)
	rng := uint64(99)
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		elems[i] = emio.Elem{Key: int64(rng >> 30), Aux: int64(i)}
	}
	backends := map[string]func(t *testing.T) *emio.Disk{
		"mem": func(*testing.T) *emio.Disk { return emio.NewDisk(b) },
		"file-pipeline": func(t *testing.T) *emio.Disk {
			d, err := emio.NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "e.dat"), b,
				emio.Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			d := mk(t)
			ctx, err := emio.NewCtxWithDisk(emio.Config{M: m, B: b}, d)
			if err != nil {
				t.Fatal(err)
			}
			in := emio.BuildFile(d, "in", elems)
			eng, err := New(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			var shards []*emio.Disk
			eng.SetShardHook(func(_ int, sd *emio.Disk) { shards = append(shards, sd) })
			var backing int64
			for call := 0; call < 3; call++ {
				shards = shards[:0]
				out, err := eng.Sort(in)
				if err != nil {
					t.Fatal(err)
				}
				out.Release()
				if len(shards) < 2 {
					t.Fatalf("call %d ran on %d shards, want a sharded sort", call, len(shards))
				}
				for k, sd := range shards {
					if live := sd.LiveScratchFiles(); len(live) != 0 || sd.LiveBlocks() != 0 {
						t.Errorf("call %d: shard %d left %d blocks in live scratch files %v", call, k, sd.LiveBlocks(), live)
					}
				}
				if call == 0 {
					backing = d.BackingBytes()
				} else if got := d.BackingBytes(); got-backing > n*16/4 {
					t.Errorf("call %d: backing file %d bytes, first call left %d: freed space not reused", call, got, backing)
				}
			}
		})
	}
}

// Repeated sorts on one pipelined file backing must cost the same physical
// transfers every time. Each call frees its files in an order that cuts
// their extents at reservation seams; unless the free space is put back in
// offset order before the next call, its reservations come out shorter and
// every call does a few more transfers than the one before. One worker makes
// the layout a function of the input, so the counts must match exactly from
// the second call on (the first draws its extents from an empty free list).
func TestEnginePhysicalIOSteadyAcrossCalls(t *testing.T) {
	const m, b, n = 4096, 32, 40000
	elems := make([]emio.Elem, n)
	rng := uint64(7)
	for i := range elems {
		rng = rng*6364136223846793005 + 1442695040888963407
		elems[i] = emio.Elem{Key: int64(rng >> 30), Aux: int64(i)}
	}
	d, err := emio.NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "p.dat"), b,
		emio.Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, err := emio.NewCtxWithDisk(emio.Config{M: m, B: b}, d)
	if err != nil {
		t.Fatal(err)
	}
	in := emio.BuildFile(d, "in", elems)
	if err := in.Sync(); err != nil {
		t.Fatal(err)
	}
	eng, err := New(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	var first emio.Stats
	for call := 0; call < 6; call++ {
		p0 := d.PhysStats()
		out, err := eng.Sort(in)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		got := d.PhysStats().Sub(p0)
		switch {
		case eng.LastReport().Sequential:
			t.Fatal("sort took the sequential path, want a sharded sort")
		case call == 1:
			first = got
		case call > 1 && got != first:
			t.Errorf("call %d: %d physical reads and %d writes, call 1 did %d and %d",
				call, got.Reads, got.Writes, first.Reads, first.Writes)
		}
	}
}
