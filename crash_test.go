package empart

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
)

// Crash-recovery harness: the real-SIGKILL end of the checkpoint tests. It
// builds the emsort binary, scripts a self-SIGKILL at a physical write op
// via -crash-after-write, verifies the process actually died by signal,
// resumes the job with -resume against the same backing file and journal,
// and requires the recovered output byte-identical to an uncrashed run —
// with the resumed work shrinking as the crash point moves later, proving
// completed phases are never repeated.
//
// Job shape (M=512, B=32, n=20000): 625 input blocks; runs hold
// (M/B-2)·B = 448 elems, so formation writes 625 blocks (ops 0-624) across
// 45 runs; merge fan-in (M-2B)/(B+4) = 12 gives two passes of 625 writes
// each (ops 625-1249 and 1250-1874). The five crash points straddle every
// phase boundary.

var (
	resumeLineRe = regexp.MustCompile(`resuming from .*: (\d+) completed run\(s\), last merge pass (-?\d+), done=(\w+)`)
	costLineRe   = regexp.MustCompile(`cost reads=(\d+) writes=(\d+)`)
)

func buildEmsort(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "emsort")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/emsort")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building emsort: %v\n%s", err, out)
	}
	return bin
}

func writeCrashInput(t *testing.T, path string, n int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(0xc4a5, 0xc4a5))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintln(&buf, rng.Int64N(int64(n)*4))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecovery(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	bin := buildEmsort(t, dir)
	input := filepath.Join(dir, "in.txt")
	writeCrashInput(t, input, n)

	baseArgs := []string{"-m", "512", "-b", "32", "-in", input}

	// Uncrashed reference run (journaled, like the crashing runs, so the
	// comparison also covers the journal's own output path).
	refOut := filepath.Join(dir, "ref.txt")
	{
		cmd := exec.Command(bin, append(append([]string{}, baseArgs...),
			"-out", refOut,
			"-backing", filepath.Join(dir, "ref.dat"),
			"-journal", filepath.Join(dir, "ref.journal"))...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("reference run: %v\n%s", err, out)
		}
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	// Crash points spanning every phase: mid formation, formation's final
	// block, early pass 0, late pass 0, and mid pass 1 (the final pass).
	// Exactly the unfinished work is redone, never a completed phase. Crash
	// at op 100 loses 7 durable runs' worth of scan (98 blocks), so resume
	// writes 527 formation + 1250 merge blocks; at op 620 only the 9-block
	// tail run is unformed; anywhere inside pass 0 the whole 1250-write
	// merge reruns (the pass had not committed); mid pass 1 only the final
	// 625-write pass reruns.
	crashOps := []int64{100, 620, 700, 1200, 1700}
	wantWrites := []int64{1777, 1259, 1250, 1250, 625}
	// The sequential points run at the top level; the same points run again
	// with two workers sorting each run, which must change neither the
	// output nor the work a resume redoes. One point runs again in the
	// power-loss grade (-full-sync on the crashed run and on its resume),
	// which fsyncs the backing file and the journal at the formation barrier
	// before the crash and must change neither either.
	crashPoints(t, bin, baseArgs, want, crashOps, wantWrites)
	t.Run("workers-2", func(t *testing.T) {
		crashPoints(t, bin, append(append([]string{}, baseArgs...), "-workers", "2"), want, crashOps, wantWrites)
	})
	t.Run("full-sync", func(t *testing.T) {
		crashPoints(t, bin, append(append([]string{}, baseArgs...), "-full-sync"), want, crashOps[2:3], wantWrites[2:3])
	})
}

// crashPoints SIGKILLs the journaled emsort job of args at each scripted
// write of crashOps, resumes it, and requires the reference output want and
// exactly the unfinished work redone: wantWrites[i] blocks after the crash
// at crashOps[i].
func crashPoints(t *testing.T, bin string, baseArgs []string, want []byte, crashOps, wantWrites []int64) {
	t.Helper()
	var resumedWrites []int64
	lastPassSeen := int64(-2)

	for _, op := range crashOps {
		t.Run(fmt.Sprintf("crash-at-write-%d", op), func(t *testing.T) {
			cdir := t.TempDir()
			backing := filepath.Join(cdir, "b.dat")
			journal := filepath.Join(cdir, "j.journal")
			outPath := filepath.Join(cdir, "out.txt")

			crash := exec.Command(bin, append(append([]string{}, baseArgs...),
				"-out", outPath,
				"-backing", backing,
				"-journal", journal,
				"-crash-after-write", strconv.FormatInt(op, 10))...)
			crashOut, err := crash.CombinedOutput()
			if err == nil {
				t.Fatalf("crash run survived its SIGKILL point\n%s", crashOut)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("crash run: %v\n%s", err, crashOut)
			}
			ws := ee.Sys().(syscall.WaitStatus)
			if !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("crash run exited %v, want death by SIGKILL\n%s", ee, crashOut)
			}

			resume := exec.Command(bin, append(append([]string{}, baseArgs...),
				"-out", outPath,
				"-backing", backing,
				"-journal", journal,
				"-resume")...)
			resumeOut, err := resume.CombinedOutput()
			if err != nil {
				t.Fatalf("resume run: %v\n%s", err, resumeOut)
			}

			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed output differs from the uncrashed reference (%d vs %d bytes)", len(got), len(want))
			}

			// The resume banner reports the journal's recovered state; the
			// last completed pass may only grow as the crash moves later.
			rm := resumeLineRe.FindSubmatch(resumeOut)
			if rm == nil {
				t.Fatalf("resume run printed no recovery banner\n%s", resumeOut)
			}
			lastPass, _ := strconv.ParseInt(string(rm[2]), 10, 64)
			if lastPass < lastPassSeen {
				t.Errorf("last completed pass went backwards: %d after %d", lastPass, lastPassSeen)
			}
			lastPassSeen = lastPass
			if op == 1700 && lastPass != 0 {
				t.Errorf("crash mid final pass recovered lastPass=%d, want 0 (pass 0 committed)", lastPass)
			}

			cm := costLineRe.FindSubmatch(resumeOut)
			if cm == nil {
				t.Fatalf("resume run printed no cost line\n%s", resumeOut)
			}
			w, _ := strconv.ParseInt(string(cm[2]), 10, 64)
			resumedWrites = append(resumedWrites, w)
		})
	}

	if len(resumedWrites) == len(crashOps) {
		for i, w := range resumedWrites {
			if w != wantWrites[i] {
				t.Errorf("crash@%d: resumed job wrote %d blocks, want exactly %d",
					crashOps[i], w, wantWrites[i])
			}
		}
	}
}
