package emio

import "fmt"

// The shared scans: the O(n/B) passes every algorithm is built from. Each
// owns its teardown, so a failed scan leaves no stream open and no file it
// created live. Spans stay with the callers.

// Scatter streams in into len(sp)+1 fresh scratch files tagged tag, bucket j
// holding the elements of the interval (sp[j-1], sp[j]] of the total order
// (sp ascending), and returns the buckets with their sizes. It costs
// ceil(n/B) reads plus ceil(c_j/B) writes per bucket, and charges only its
// stream buffers: one per bucket and one for the input.
func Scatter(ctx *Ctx, in *File, sp []Elem, tag string) ([]*File, []int64, error) {
	nb := len(sp) + 1
	buckets := make([]*File, nb)
	writers := make([]*Writer, nb)
	counts := make([]int64, nb)
	fail := func(err error) ([]*File, []int64, error) {
		for j, w := range writers {
			if w != nil {
				w.Close()
			}
			if buckets[j] != nil {
				buckets[j].Release()
			}
		}
		return nil, nil, err
	}
	for j := range buckets {
		buckets[j] = ctx.Scratch(tag)
		w, err := NewWriter(ctx, buckets[j])
		if err != nil {
			return fail(err)
		}
		writers[j] = w
	}
	r, err := NewReader(ctx, in)
	if err != nil {
		return fail(err)
	}
	var idx [Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), Lanes)]
			c = c[len(batch):]
			Classify(sp, batch, idx[:])
			for i, e := range batch {
				writers[idx[i]].Append(e)
				counts[idx[i]]++
			}
		}
	}
	err = r.Err()
	r.Close()
	for _, w := range writers {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fail(err)
	}
	return buckets, counts, nil
}

// CountBuckets counts, in one scan of f (ceil(n/B) reads), the elements in
// each of the len(sp)+1 buckets the ascending splitters sp induce, bucket j
// being (sp[j-1], sp[j]]. The counts are charged: free them with
// Ctx.FreeInts. top is the largest element of the last bucket, the zero Elem
// when that bucket is empty; only the elements the classifier puts there are
// compared.
func CountBuckets(ctx *Ctx, f *File, sp []Elem) (counts []int64, top Elem, err error) {
	last := len(sp)
	if counts, err = ctx.AllocInts(last + 1); err != nil {
		return nil, Elem{}, err
	}
	r, err := NewReader(ctx, f)
	if err != nil {
		ctx.FreeInts(counts)
		return nil, Elem{}, err
	}
	defer r.Close()
	var idx [Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), Lanes)]
			c = c[len(batch):]
			Classify(sp, batch, idx[:])
			for i, j := range idx[:len(batch)] {
				counts[j]++
				if j == last && (counts[j] == 1 || Less(top, batch[i])) {
					top = batch[i]
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		ctx.FreeInts(counts)
		return nil, Elem{}, err
	}
	return counts, top, nil
}

// StreamInto appends the first n elements of src to the open writer w,
// reading only the ceil(n/B) blocks that hold them. src is unchanged; w
// stays open.
func StreamInto(ctx *Ctx, w *Writer, src *File, n int64) error {
	r, err := NewReader(ctx, src)
	if err != nil {
		return err
	}
	defer r.Close()
	for left := n; left > 0; {
		c := r.Chunk()
		if len(c) == 0 {
			if err := r.Err(); err != nil {
				return err
			}
			return fmt.Errorf("emio: StreamInto of %d elements from %s ran %d short", n, src.Name(), left)
		}
		c = c[:min(int64(len(c)), left)]
		for _, e := range c {
			w.Append(e)
		}
		left -= int64(len(c))
	}
	return w.Err()
}
