package emio

// Writer streams elements into a File sequentially through one block buffer.
// Writing n elements and flushing costs ceil(n/B) write I/Os. The buffer is
// charged against the memory budget for the Writer's lifetime; Close flushes
// and releases it.
//
// Errors are sticky: after a failed block write, Append becomes a no-op and
// Flush/Close report the first error.
type Writer struct {
	ctx *Ctx
	f   *File
	buf []Elem
	n   int
	err error
}

// NewWriter opens a sequential writer appending to f with one block buffer,
// charged to the memory budget and taken from the context's free list. The
// file must be empty or end on a full block.
//
// The body stays within the inliner's budget, so a Writer that does not escape
// its caller lives on the caller's stack and opening one allocates nothing.
func NewWriter(ctx *Ctx, f *File) (w *Writer, err error) {
	buf, err := ctx.takeBlockBuf()
	if err == nil {
		w = &Writer{ctx: ctx, f: f, buf: buf}
	}
	return
}

// Append adds one element to the stream, writing a block when the buffer
// fills.
func (w *Writer) Append(e Elem) {
	if w.err != nil || w.buf == nil {
		return
	}
	w.buf[w.n] = e
	w.n++
	if w.n == len(w.buf) {
		w.err = w.f.AppendBlock(w.buf)
		w.n = 0
	}
}

// Flush writes any buffered partial block. Because a partial block seals the
// file, Flush is a terminal operation: call it once, when the stream is
// complete. Flushing an empty buffer is a free no-op.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.buf != nil && w.n > 0 {
		w.err = w.f.AppendBlock(w.buf[:w.n])
		w.n = 0
	}
	return w.err
}

// Err returns the first I/O error encountered.
func (w *Writer) Err() error { return w.err }

// Close flushes, waits out any write-behind blocks of the file, and releases
// the block buffer. It is safe to call twice; every error encountered by the
// Writer — including an asynchronous physical write failure — is returned.
// Sync runs even after a failed flush: earlier blocks of the file may be
// sitting in the write-behind queue with a sticky failure of their own, and
// a flush error (a cancellation, a quota rejection) must not swallow it.
// Distinct failures are joined, never masked.
func (w *Writer) Close() error {
	if w.buf == nil {
		return w.err
	}
	flushErr := w.Flush()
	w.ctx.putBlockBuf(w.buf)
	w.buf = nil
	err := joinErr(flushErr, w.f.Sync())
	w.err = err
	return err
}
