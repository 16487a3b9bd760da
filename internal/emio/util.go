package emio

import "fmt"

// WriteScratch produces a single-writer scratch output: it creates a scratch
// file tagged tag, opens a writer on it, runs fill and closes the writer. On
// any failure it releases the file, so the caller owns the file exactly when
// WriteScratch returns it. The first error wins: when fill fails, the error
// of the Close that follows is dropped.
func WriteScratch(ctx *Ctx, tag string, fill func(*Writer) error) (*File, error) {
	f := ctx.Scratch(tag)
	w, err := NewWriter(ctx, f)
	if err == nil {
		err = fill(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// Copy streams src into a fresh scratch file and returns it, at a cost of one
// scan: ceil(n/B) reads + ceil(n/B) writes. On failure it releases the copy.
func Copy(ctx *Ctx, src *File) (*File, error) {
	return WriteScratch(ctx, "copy", func(w *Writer) error { return StreamInto(ctx, w, src, src.Len()) })
}

// AppendAll streams every element of src onto the end of dst.
func AppendAll(ctx *Ctx, dst, src *File) error {
	w, err := NewWriter(ctx, dst)
	if err != nil {
		return err
	}
	return joinErr(StreamInto(ctx, w, src, src.Len()), w.Close())
}

// LoadAll reads an entire file into a memory buffer charged against the
// budget, costing ceil(n/B) reads. The file must fit: callers invoke this
// only on inputs they know are at most M (base cases of recursions).
// Release the buffer with Ctx.FreeElems.
func LoadAll(ctx *Ctx, f *File) ([]Elem, error) {
	n := f.Len()
	buf, err := ctx.AllocElems(int(n))
	if err != nil {
		return nil, err
	}
	r, err := NewReader(ctx, f)
	if err != nil {
		ctx.FreeElems(buf)
		return nil, err
	}
	defer r.Close()
	i := 0
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		buf[i] = e
		i++
	}
	if err := r.Err(); err != nil {
		ctx.FreeElems(buf)
		return nil, err
	}
	if int64(i) != n {
		ctx.FreeElems(buf)
		return nil, fmt.Errorf("emio: LoadAll of %s read %d of %d elements", f.Name(), i, n)
	}
	return buf, nil
}

// StoreAll writes a memory buffer out as a fresh scratch file, costing
// ceil(n/B) writes. On failure it releases the file.
func StoreAll(ctx *Ctx, tag string, elems []Elem) (*File, error) {
	return WriteScratch(ctx, tag, func(w *Writer) error {
		for _, e := range elems {
			w.Append(e)
		}
		return nil
	})
}

// SplitFile cuts f into consecutive segments of the given sizes (which must
// be nonnegative and sum to f.Len()), each written to its own fresh file, in
// one scan. Because the input is consumed in order, only one output writer is
// open at a time.
func SplitFile(ctx *Ctx, f *File, sizes []int64) ([]*File, error) {
	var sum int64
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("emio: SplitFile negative size %d at %d", s, i)
		}
		sum += s
	}
	if sum != f.Len() {
		return nil, fmt.Errorf("emio: SplitFile sizes sum to %d, file holds %d", sum, f.Len())
	}
	out := make([]*File, len(sizes))
	for i := range out {
		out[i] = ctx.Scratch("seg")
	}
	release := func() {
		for _, g := range out {
			g.Release()
		}
	}
	r, err := NewReader(ctx, f)
	if err != nil {
		release()
		return nil, err
	}
	defer r.Close()
	for i, sz := range sizes {
		if sz == 0 {
			continue
		}
		w, err := NewWriter(ctx, out[i])
		if err != nil {
			release()
			return nil, err
		}
		for j := int64(0); j < sz; j++ {
			e, ok := r.Next()
			if !ok {
				w.Close()
				release()
				if err := r.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("emio: SplitFile input exhausted in segment %d", i)
			}
			w.Append(e)
		}
		if err := w.Close(); err != nil {
			release()
			return nil, err
		}
	}
	return out, nil
}

// Snapshot copies the file's contents into a plain slice without charging
// any I/Os or memory. It exists for test oracles, verifiers and reporting
// harnesses only — algorithm code never calls it, by convention enforced in
// review and by the fact that it defeats the accountant tests would trip.
func (f *File) Snapshot() []Elem {
	if f.released {
		panic(fmt.Sprintf("emio: Snapshot of released file %s", f.name))
	}
	out := make([]Elem, f.n)
	buf := make([]Elem, f.disk.blockSize)
	pos := 0
	for i := 0; i < f.nblocks; i++ {
		n, err := f.disk.store.read(f, i, buf, false)
		if err != nil {
			panic(fmt.Sprintf("emio: Snapshot of %s: %v", f.name, err))
		}
		pos += copy(out[pos:], buf[:n])
	}
	return out
}

// BuildFile creates a file holding the given elements without charging any
// I/Os or memory: the harness-side dual of Snapshot, used by workload
// generators and tests to stage inputs. Algorithm code never calls it.
func BuildFile(d *Disk, name string, elems []Elem) *File {
	f := d.NewFile(name)
	b := d.blockSize
	for len(elems) > 0 {
		k := min(b, len(elems))
		if err := d.store.append(f, elems[:k]); err != nil {
			panic(fmt.Sprintf("emio: BuildFile %s: %v", name, err))
		}
		if d.checksum {
			f.sums = append(f.sums, checksumElems(elems[:k]))
		}
		f.nblocks++
		// Staged inputs occupy real space but must never be rejected by the
		// quota (the budget bounds the job, admission of its input is the
		// caller's decision), so they are recorded without admission.
		d.noteAlloc(1)
		f.n += int64(k)
		if k < b {
			f.sealed = true
		}
		elems = elems[k:]
	}
	return f
}
