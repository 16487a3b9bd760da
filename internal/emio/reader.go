package emio

// Reader streams the elements of a File sequentially, one block buffer at a
// time. Reading n elements costs ceil(n/B) read I/Os (plus nothing for the
// blocks never reached). The buffer is charged against the memory budget for
// the Reader's lifetime; Close releases it.
//
// Errors are sticky, in the style of bufio.Scanner: Next reports exhaustion,
// and Err distinguishes a clean end of file from an I/O failure.
type Reader struct {
	ctx     *Ctx
	f       *File
	buf     []Elem
	blk     int   // next block index to fetch
	off     int   // next element offset within buf
	fill    int   // valid elements in buf
	fetched int64 // elements in blocks fetched so far (keeps Remaining O(1))
	err     error

	consume bool // reclaim consumed blocks as the cursor advances
}

// NewReader opens a sequential reader over f with one block buffer, charged
// to the memory budget and taken from the context's free list.
//
// The body stays within the inliner's budget, so a Reader that does not escape
// its caller lives on the caller's stack and opening one allocates nothing.
func NewReader(ctx *Ctx, f *File) (r *Reader, err error) {
	buf, err := ctx.takeBlockBuf()
	if err == nil {
		r = &Reader{ctx: ctx, f: f, buf: buf}
	}
	return
}

// Next returns the next element. The second result is false when the stream
// is exhausted, either by end of file or by an error; consult Err to tell
// the two apart.
func (r *Reader) Next() (Elem, bool) {
	if r.off >= r.fill {
		if !r.fetch() {
			return Elem{}, false
		}
	}
	e := r.buf[r.off]
	r.off++
	return e, true
}

// Chunk returns the unread rest of the current block, fetching the next
// block first when the current one is used up, and marks it read. An empty
// result means the stream is exhausted; consult Err. The chunk aliases the
// Reader's buffer: it stays valid only until the next call on the Reader
// (Next, Chunk or Close).
func (r *Reader) Chunk() []Elem {
	if r.off >= r.fill && !r.fetch() {
		return nil
	}
	c := r.buf[r.off:r.fill]
	r.off = r.fill
	return c
}

func (r *Reader) fetch() bool {
	if r.err != nil || r.buf == nil {
		return false
	}
	if r.blk >= r.f.NumBlocks() {
		return false
	}
	n, err := r.f.readBlockAhead(r.blk, r.buf, true)
	if err != nil {
		r.err = err
		return false
	}
	r.blk++
	r.off = 0
	r.fill = n
	r.fetched += int64(n)
	if r.consume {
		// Reclaim blocks strictly more than ConsumeLag behind the current
		// block (r.blk-1). No read in flight covers them: the I/O engine
		// serves the current block from a read-ahead window it has already
		// waited for, and its only window in flight starts after that one.
		if upTo := r.blk - 1 - ConsumeLag; upTo > 0 {
			r.f.ReleasePrefix(upTo)
		}
	}
	return n > 0
}

// Consume arms consuming mode: the storage of a block the reader has moved
// more than ConsumeLag blocks past is reclaimed with ReleasePrefix. This is
// the disk-budget degradation primitive of merges — a run being merged is
// read exactly once, so its consumed blocks can fund the merge output. Use
// only on fully written (synced) files that nothing will read again.
func (r *Reader) Consume() { r.consume = true }

// Err returns the first I/O error encountered, or nil after a clean end of
// stream.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many elements are still unread (metadata only, no
// I/O, O(1)).
func (r *Reader) Remaining() int64 {
	if r.f.Released() {
		return 0
	}
	return r.f.Len() - r.fetched + int64(r.fill-r.off)
}

// Close releases the Reader's block buffer to the context's free list. It is
// safe to call twice.
func (r *Reader) Close() {
	if r.buf != nil {
		r.ctx.putBlockBuf(r.buf)
		r.buf = nil
	}
}
