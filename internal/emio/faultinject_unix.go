//go:build unix

package emio

import "syscall"

// powerCut is the crash-point schedule's scripted "power cut": SIGKILL leaves
// no chance for deferred cleanup, buffered flushes or journal appends —
// exactly the crash model checkpoint/resume must survive.
func powerCut() {
	syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL cannot be caught or delayed
}
