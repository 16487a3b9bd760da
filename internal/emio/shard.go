package emio

import "fmt"

// Shard sub-disks.
//
// The parallel engine (internal/empar) splits one logical Disk into S shard
// sub-disks. Each shard is a full *Disk with its own logical I/O counters,
// footprint meters, live-file registry and (optionally) fault injector, but
// all shards store their blocks in the parent's block store: on a file
// backing every shard's transfer is a positioned read or write of the same
// OS file, and extents come from the parent's shared allocator. Two
// mechanisms make that sharing cheap and exact:
//
//   - Views (Disk.NewView): a read-only window onto a contiguous block range
//     of a parent file. A shard reads its slice of the input through a view;
//     the read is counted on the shard, the bytes come from the parent's
//     store, and nothing is copied.
//
//   - Extent adoption (AdoptAppend): a whole file written by a shard is
//     grafted onto a parent output file by moving its extents — zero I/O,
//     exactly like a filesystem rename. The blocks were already written
//     (and counted) once on the shard; reassembling the output costs only
//     the boundary blocks that straddle two shards.
//
// The shard's accounting is deterministic because every counter lives on the
// shard and the engine folds shard deltas into the parent at phase barriers
// in shard order.

// sharedStore is the store capability behind shard sub-disks: block access
// with the acting disk made explicit (so fault injection and retry resolve
// per shard) and a caller-supplied scratch buffer (so concurrent shards do
// not race on the store's synchronous codec scratch). Implemented by both
// memStore and fileStore; on a file store these are the per-block transfers
// of disks without a pipeline.
type sharedStore interface {
	blockStore
	readShared(d *Disk, src *File, blk int, buf []Elem, scratch []byte) (int, error)
	appendShared(d *Disk, f *File, payload []Elem, scratch []byte) error
	releaseShared(f *File)
}

func (s *memStore) readShared(d *Disk, src *File, blk int, buf []Elem, _ []byte) (int, error) {
	b := src.mem[blk]
	if cap(buf) < len(b) {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), len(b))
	}
	if d.Injector() != nil {
		off := int64(blk) * int64(d.blockSize) * elemBytes
		if err := d.runPhys(opRead, src.name, off, func() error { return nil }); err != nil {
			return 0, storeReadError(src.name, off, err)
		}
	}
	return copy(buf[:len(b)], b), nil
}

func (s *memStore) appendShared(d *Disk, f *File, payload []Elem, _ []byte) error {
	if d.Injector() != nil {
		off := int64(len(f.mem)) * int64(d.blockSize) * elemBytes
		if err := d.runPhys(opWrite, f.name, off, func() error { return nil }); err != nil {
			return storeWriteError(d, f.name, off, err)
		}
	}
	blk := s.takeBlock(len(payload), d.blockSize)
	copy(blk, payload)
	f.mem = append(f.mem, blk)
	return nil
}

func (s *memStore) releaseShared(f *File) { s.release(f) }

// readShared reads block blk of src with one positioned transfer on the
// calling goroutine. The extents are settled bytes: a disk's staged writes
// are written out before it reads the file, the parallel engine syncs parent
// input files before handing views to workers, and shards settle before
// another disk reads what they wrote.
func (s *fileStore) readShared(d *Disk, src *File, blk int, buf []Elem, scratch []byte) (int, error) {
	n := src.blockLen(blk)
	if cap(buf) < n {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), n)
	}
	raw := scratch[:s.pad(n*elemBytes)]
	if err := s.transfer(d, opRead, src.name, raw, src.extents[blk], 1); err != nil {
		return 0, storeReadError(src.name, src.extents[blk], err)
	}
	decodeElems(buf[:n], raw[:n*elemBytes], true)
	return n, nil
}

// appendShared writes payload as the next block of f with one positioned
// transfer on the calling goroutine.
func (s *fileStore) appendShared(d *Disk, f *File, payload []Elem, scratch []byte) error {
	nbytes := len(payload) * elemBytes
	pn := s.pad(nbytes)
	off := s.allocExtent(pn)
	raw := scratch[:pn]
	encodeElems(raw[:nbytes], payload, true)
	clear(raw[nbytes:])
	if err := s.transfer(d, opWrite, f.name, raw, off, 1); err != nil {
		s.freeRun(off, pn, 1)
		return storeWriteError(d, f.name, off, err)
	}
	f.extents = append(f.extents, off)
	return nil
}

// releaseShared returns f's extents to the shared allocator. The caller has
// written out f's staged blocks first.
func (s *fileStore) releaseShared(f *File) {
	s.freeBlocks(f, 0, len(f.extents))
	f.extents = nil
}

// shardStore is the blockStore of a shard sub-disk: a thin adapter that
// routes every operation to the parent's shared store with the acting disk
// and a per-shard scratch buffer, resolving views to their backing file.
// Over a pipelined file store, io is the shard's I/O engine (see
// disk_io.go).
type shardStore struct {
	base    blockStore  // the parent's store, for same-backing identity checks
	sh      sharedStore // the same store through its shared-access capability
	scratch []byte      // per-shard codec scratch (aligned for O_DIRECT backings)
	io      *diskIO     // staged writes and read-ahead; nil without a pipeline
}

func (st *shardStore) read(f *File, i int, buf []Elem, seq bool) (int, error) {
	src, blk := f, i
	if f.viewSrc != nil {
		src, blk = f.viewSrc, f.viewOff+i
	}
	if st.io != nil {
		return st.io.read(f, src, i, blk, buf, seq, st.scratch)
	}
	return st.sh.readShared(f.disk, src, blk, buf, st.scratch)
}

func (st *shardStore) append(f *File, payload []Elem) error {
	if st.io != nil {
		return st.io.append(f, payload)
	}
	return st.sh.appendShared(f.disk, f, payload, st.scratch)
}

// syncFile writes f's staged blocks and reports their failure, if any.
func (st *shardStore) syncFile(f *File) error {
	if st.io == nil {
		return nil
	}
	return st.io.sync(f)
}

func (st *shardStore) release(f *File) {
	if st.io != nil {
		st.io.forget(f)
	}
	if f.viewSrc != nil {
		return // views own no storage
	}
	st.sh.releaseShared(f)
}

// Settle ends a shard task's use of the shared backing: it writes the
// shard's staged blocks, returns its unused extent reservation to the
// allocator and reports the first staged-write failure that no operation
// has reported yet. The parallel engine settles every shard at the end of
// each of its tasks, so a phase barrier hands only settled files to the
// next phase. A no-op (nil) on disks that are not pipelined shards.
func (d *Disk) Settle() error {
	if st, ok := d.store.(*shardStore); ok && st.io != nil {
		return st.io.settle()
	}
	return nil
}

// close is a no-op: the parent owns the store.
func (st *shardStore) close() error { return nil }

// storeBase returns the disk's underlying block store, unwrapping a shard
// adapter. Two disks share a backing exactly when their bases are identical.
func storeBase(d *Disk) blockStore {
	if st, ok := d.store.(*shardStore); ok {
		return st.base
	}
	return d.store
}

// NewShard creates shard sub-disk k of d: a Disk with its own counters,
// meters, registries and injector slot, whose blocks live in d's store.
// Shards of a shard share the original base store. The shard inherits the
// parent's block size, checksum arming and retry policy (the retrier's
// counters are shared and atomic); it inherits neither metrics, logging nor
// fault injectors — those stay per-disk so schedules armed on one shard
// fire only there. On a pipelined file store the shard runs its own I/O
// engine (see disk_io.go) and must be settled (Settle) before another disk
// reads the files it wrote.
//
// Concurrent use: different shard disks may be driven from different
// goroutines at the same time; one shard disk is still single-goroutine,
// like any Disk.
func (d *Disk) NewShard(k int) (*Disk, error) {
	var (
		base blockStore
		sh   sharedStore
	)
	if st, ok := d.store.(*shardStore); ok {
		base, sh = st.base, st.sh
	} else if s, ok := d.store.(sharedStore); ok {
		base, sh = d.store, s
	} else {
		return nil, fmt.Errorf("emio: disk %s: store %T does not support sharding", d.id, d.store)
	}
	st := &shardStore{base: base, sh: sh}
	sd := &Disk{
		blockSize: d.blockSize,
		store:     st,
		id:        fmt.Sprintf("%s/shard-%d", d.id, k),
		checksum:  d.checksum,
		retry:     d.retry,
		// One job, one cancel flag, one disk budget: a cancel or a quota hit
		// on any shard stops (or rejects on) all of them.
		cancel: d.cancel,
		budget: d.budget,
	}
	if fs, ok := base.(*fileStore); ok {
		st.scratch = alignedBytes(fs.pad(d.blockSize*elemBytes), fs.direct)
		if fs.io != nil {
			st.io = newDiskIO(fs, sd, true)
			sd.prefetch = fs.dep.prefetch
		}
	}
	return sd, nil
}

// NewView creates a read-only window onto nblk contiguous blocks of src
// starting at startBlk, registered on d (typically a shard sub-disk of
// src's disk, which must share d's backing store). Reads through the view
// are counted on d; the view owns no storage, costs no footprint, and is
// sealed against appends. Views of views flatten to the original file.
// When checksums are armed and src carries sums for the window, the view
// aliases them, so reads stay verified.
func (d *Disk) NewView(src *File, startBlk, nblk int, name string) (*File, error) {
	if src.viewSrc != nil {
		startBlk += src.viewOff
		src = src.viewSrc
	}
	if src.released {
		return nil, fmt.Errorf("%w (%s)", ErrReleased, src.name)
	}
	if storeBase(src.disk) != storeBase(d) {
		return nil, fmt.Errorf("emio: view of %s: disks %s and %s do not share a backing store",
			src.name, src.disk.id, d.id)
	}
	if startBlk < 0 || nblk < 0 || startBlk+nblk > src.nblocks {
		return nil, fmt.Errorf("%w: view [%d, %d) of %d blocks in %s",
			ErrBlockRange, startBlk, startBlk+nblk, src.nblocks, src.name)
	}
	if name == "" {
		d.fileSeq++
		name = fmt.Sprintf("view-%d(%s)", d.fileSeq, src.name)
	}
	var n int64
	if nblk > 0 {
		n = int64(nblk-1)*int64(src.disk.blockSize) + int64(src.blockLen(startBlk+nblk-1))
	}
	f := &File{
		disk:    d,
		name:    name,
		n:       n,
		nblocks: nblk,
		sealed:  true, // windows are immutable
		viewSrc: src,
		viewOff: startBlk,
	}
	if d.checksum && startBlk+nblk <= len(src.sums) {
		f.sums = src.sums[startBlk : startBlk+nblk]
	}
	if d.liveFiles == nil {
		d.liveFiles = make(map[*File]struct{})
	}
	d.liveFiles[f] = struct{}{}
	return f, nil
}

// AdoptAppend grafts every block of body onto the end of out by moving the
// underlying storage — zero logical and physical I/O, like a filesystem
// rename. The blocks were already written (and counted) once, on body's
// disk; adoption only transfers ownership. body is consumed: it is released
// (without freeing its storage) and must not be used again.
//
// Requirements: out is unsealed and block-aligned (its last block is full),
// body is not a view, and both files live on the same backing store. A
// sealed body (short last block) seals out. When checksums are armed the
// sums move with the blocks.
func AdoptAppend(out, body *File) error {
	if out.released {
		return fmt.Errorf("%w (%s)", ErrReleased, out.name)
	}
	if body.released {
		return fmt.Errorf("%w (%s)", ErrReleased, body.name)
	}
	if body.viewSrc != nil {
		return fmt.Errorf("emio: adopt %s into %s: cannot adopt a view", body.name, out.name)
	}
	if out.sealed {
		return fmt.Errorf("%w (%s)", ErrPartialBlock, out.name)
	}
	if out.n%int64(out.disk.blockSize) != 0 {
		return fmt.Errorf("emio: adopt %s into %s: output not block-aligned (%d elements)",
			body.name, out.name, out.n)
	}
	if storeBase(out.disk) != storeBase(body.disk) {
		return fmt.Errorf("emio: adopt %s into %s: disks %s and %s do not share a backing store",
			body.name, out.name, body.disk.id, out.disk.id)
	}
	if out.disk.checksum && (len(out.sums) != out.nblocks || len(body.sums) != body.nblocks) {
		return fmt.Errorf("emio: adopt %s into %s: incomplete checksum sidecar", body.name, out.name)
	}
	out.mem = append(out.mem, body.mem...)
	out.extents = append(out.extents, body.extents...)
	if out.disk.checksum {
		out.sums = append(out.sums, body.sums...)
	}
	out.n += body.n
	out.nblocks += body.nblocks
	out.sealed = body.sealed
	out.disk.noteAlloc(int64(body.nblocks))

	body.disk.noteFree(int64(body.nblocks))
	body.disk.noteRelease(body)
	body.mem = nil
	body.extents = nil
	body.sums = nil
	body.n = 0
	body.nblocks = 0
	body.released = true
	return nil
}
