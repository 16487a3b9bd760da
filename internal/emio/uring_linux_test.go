//go:build linux && (amd64 || arm64 || riscv64)

package emio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestUringSingleOwnerOverflow keeps more transfers outstanding than the
// ring has entries, from one goroutine, as the I/O engine's owner does:
// eight writes submitted on a depth-2 ring, then a wait on each, then the
// same for reads. Nothing but the owner reaps the ring, so a submission that
// finds no free slot must reap completions itself; if it did not, the test
// would hang or fail here. The data must come back intact, and close must
// leave every slot free.
func TestUringSingleOwnerOverflow(t *testing.T) {
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "ring.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	u, err := newUring(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n, sz = 8, 512
	if len(u.cbs) >= n {
		t.Fatalf("ring has %d entries, want fewer than the %d transfers", len(u.cbs), n)
	}
	// run submits one transfer per buffer, all before waiting on any.
	run := func(op ioOp, bufs [][]byte) {
		t.Helper()
		done := make([]bool, n)
		res := make([]int32, n)
		for i := range n {
			if err := u.submitCallback(op, bufs[i], int64(i*sz), func(r int32) { res[i], done[i] = r, true }); err != nil {
				t.Fatalf("%v %d: %v", op, i, err)
			}
		}
		for i := range n {
			u.waitFor(&done[i])
			if res[i] != sz {
				t.Fatalf("%v %d: result %d, want %d bytes", op, i, res[i], sz)
			}
		}
	}
	want, got := make([][]byte, n), make([][]byte, n)
	for i := range n {
		want[i], got[i] = bytes.Repeat([]byte{byte(i + 1)}, sz), make([]byte, sz)
	}
	run(opWrite, want)
	run(opRead, got)
	for i := range n {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("transfer %d read back wrong data", i)
		}
	}
	if err := u.close(); err != nil {
		t.Fatal(err)
	}
	if len(u.free) != len(u.cbs) || u.broken {
		t.Errorf("after close: %d of %d slots free, broken=%v; want all free on a live ring", len(u.free), len(u.cbs), u.broken)
	}
}
