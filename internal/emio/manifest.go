package emio

// File manifests: the durable directory metadata of checkpoint/resume.
//
// A FileManifest is everything a resumed process needs to re-adopt a file's
// blocks from the backing file of a crashed run: the element count, the
// extent list, and (when checksums are armed) the per-block CRC32C sidecar.
// The checkpoint layer journals manifests of completed phase outputs; on
// resume, a disk opened with NewFileBackedDiskResume over the same backing
// file reconstructs the files with AdoptFile, at zero I/O.
//
// Resume safety invariant: AdoptFile raises the store's append cursor past
// every adopted extent, so blocks written after the crash point — which the
// journal knows nothing about — can only ever land on fresh space or on
// extents the journaled state considers dead. Journaled data is never
// overwritten by the resumed run.

import (
	"fmt"
	"log/slog"
	"slices"
)

// FileManifest is the durable description of one file on a file-backed
// disk, sufficient to re-adopt its blocks after a crash. Produced by
// File.Manifest, consumed by Disk.AdoptFile, serialized (as JSON) inside
// journal records by the checkpoint layer.
type FileManifest struct {
	Name    string   `json:"name"`
	N       int64    `json:"n"`
	Extents []int64  `json:"extents"`
	Sums    []uint32 `json:"sums,omitempty"`
}

// Manifest captures the file's durable description for a journal record,
// draining pending write-behind blocks first so the manifest only ever
// describes bytes that have reached the backing file. Only files on
// file-backed disks can be manifested: memory-backed files and
// prefix-consumed files (ReleasePrefix) have no stable extent list to
// record.
func (f *File) Manifest() (FileManifest, error) {
	switch {
	case f.released:
		return FileManifest{}, fmt.Errorf("%w (%s)", ErrReleased, f.name)
	case f.freed > 0:
		return FileManifest{}, fmt.Errorf("emio: manifest of %s: prefix-consumed files are not manifestable", f.name)
	case len(f.extents) != f.nblocks:
		return FileManifest{}, fmt.Errorf("emio: manifest of %s: not a file-backed file", f.name)
	}
	if err := f.Sync(); err != nil {
		return FileManifest{}, err
	}
	m := FileManifest{Name: f.name, N: f.n, Extents: slices.Clone(f.extents)}
	if f.disk.checksum && len(f.sums) == f.nblocks {
		m.Sums = slices.Clone(f.sums)
	}
	return m, nil
}

// AdoptFile reconstructs a file from a journaled manifest, registering its
// extents with this disk — the crash-resume dual of Manifest. The disk must
// have been opened with NewFileBackedDiskResume over the same backing file
// and adoption must happen before new writes (the append cursor is raised
// past every adopted extent, so later allocations cannot resurrect on top of
// journaled data). Adopted blocks are force-charged against the disk budget
// and footprint meters; scratch tags the file for the leak detector like
// Ctx.Scratch would. Adopted files are sealed (resume only reads them).
func (d *Disk) AdoptFile(m FileManifest, scratch bool) (*File, error) {
	fs, ok := d.store.(*fileStore)
	if !ok {
		return nil, fmt.Errorf("emio: adopt %s: disk %s is not file-backed", m.Name, d.id)
	}
	if m.N < 0 {
		return nil, fmt.Errorf("emio: adopt %s: negative length %d", m.Name, m.N)
	}
	nblocks := int((m.N + int64(d.blockSize) - 1) / int64(d.blockSize))
	if len(m.Extents) != nblocks {
		return nil, fmt.Errorf("emio: adopt %s: %d extents for %d blocks", m.Name, len(m.Extents), nblocks)
	}
	f := d.NewFile(m.Name)
	f.n = m.N
	f.nblocks = nblocks
	f.sealed = true
	f.extents = slices.Clone(m.Extents)
	if d.checksum && len(m.Sums) == nblocks {
		f.sums = slices.Clone(m.Sums)
	}
	var end int64
	for i, off := range f.extents {
		if off < 0 {
			return nil, fmt.Errorf("emio: adopt %s: negative extent %d at block %d", m.Name, off, i)
		}
		if e := off + int64(fs.extentBytes(f, i)); e > end {
			end = e
		}
	}
	fs.adoptFloor(end)
	d.noteAlloc(int64(nblocks))
	d.forceBlocks(int64(nblocks))
	if scratch {
		d.markScratch(f)
	}
	d.log(slog.LevelInfo, "file adopted from journal manifest",
		slog.String("file", f.name), slog.Int("blocks", nblocks), slog.Int64("elems", m.N))
	return f, nil
}
