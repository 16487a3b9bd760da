//go:build !linux || !(amd64 || arm64 || riscv64)

package emio

import (
	"errors"
	"os"
	"sync/atomic"
)

// The io_uring backend exists only on Linux ports whose raw syscall numbers
// uring_linux.go carries. Here UringSupported reports false, newUring always
// fails, and Pipeline.Uring degrades to the pread/pwrite paths with no
// behavior change — the same silent-degradation contract as Pipeline.Direct
// on filesystems without O_DIRECT.

// UringSupported reports false: no io_uring on this platform.
func UringSupported() bool { return false }

var errNoUring = errors.New("emio: io_uring unavailable on this platform")

// uring is never constructed on this platform (newFileStore consults
// UringSupported first); the type and methods exist so the store compiles
// unchanged.
type uring struct {
	sm *atomic.Pointer[storeMetrics]
}

func newUring(*os.File, int) (*uring, error) { return nil, errNoUring }

func (*uring) pread([]byte, int64) error                             { return errNoUring }
func (*uring) pwrite([]byte, int64) error                            { return errNoUring }
func (*uring) waitDone(<-chan struct{})                              {}
func (*uring) submitCallback(ioOp, []byte, int64, func(int32)) error { return errNoUring }
func (*uring) registerBuffers([][]byte)                              {}
func (*uring) close() error                                          { return nil }
