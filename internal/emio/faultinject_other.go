//go:build !unix

package emio

import "os"

// powerCut approximates the unix SIGKILL "power cut" on platforms without
// self-signalling: an immediate exit that skips deferred cleanup and
// buffered flushes. The crash harness itself only runs on unix hosts.
func powerCut() {
	os.Exit(137)
}
