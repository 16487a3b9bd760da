package empart

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/emio"
	"repro/internal/extsort"
	"repro/internal/workload"
)

// Job-layer validation: the crash-safe sort job must refuse configurations
// it cannot honor — and refuse to resume a journal whose machine shape
// differs from the caller's, since M and B determine the run structure.

func TestOpenSortJobValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{M: 1 << 10, B: 1 << 5}
	load := func() ([]Elem, error) {
		return workload.Elems(workload.Uniform, 1<<10, cfg.B, 1), nil
	}

	if _, err := OpenSortJob(JobConfig{Config: cfg, Journal: filepath.Join(dir, "j")}, load); err == nil {
		t.Error("job without a backing file accepted")
	}
	if _, err := OpenSortJob(JobConfig{Config: cfg, Path: filepath.Join(dir, "b.dat")}, load); err == nil {
		t.Error("job without a journal accepted")
	}
	// Workers sort each run in memory: a job with runs past the parallel
	// cutoff runs and sorts like any other.
	par := Config{M: 1 << 13, B: 1 << 5, Workers: 2}
	elems := workload.Elems(workload.Uniform, 1<<14, par.B, 1)
	job, err := OpenSortJob(JobConfig{Config: par, Path: filepath.Join(dir, "p.dat"), Journal: filepath.Join(dir, "p.journal")},
		func() ([]Elem, error) { return elems, nil })
	if err != nil {
		t.Fatalf("job with Workers=2: %v", err)
	}
	out, err := job.Run()
	if err != nil {
		t.Fatalf("job with Workers=2: run: %v", err)
	}
	want := slices.Clone(elems)
	slices.SortFunc(want, emio.Compare)
	if got := job.System().Read(out); !slices.Equal(got, want) {
		t.Error("job with Workers=2: output is not the sorted input")
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSortJob(JobConfig{Config: cfg, Path: filepath.Join(dir, "no.dat"), Journal: filepath.Join(dir, "absent.journal"), Resume: true}, load); err == nil {
		t.Error("resume from a journal with no staged input accepted")
	}
}

func TestSortJobRunAndResumeShapeCheck(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{M: 1 << 10, B: 1 << 5}
	backing := filepath.Join(dir, "b.dat")
	journal := filepath.Join(dir, "j.journal")
	elems := workload.Elems(workload.Uniform, 1<<12, cfg.B, 0x50b7)

	job, err := OpenSortJob(JobConfig{Config: cfg, Path: backing, Journal: journal},
		func() ([]Elem, error) { return elems, nil })
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Run()
	if err != nil {
		t.Fatalf("job run: %v", err)
	}
	if out.Len() != int64(len(elems)) {
		t.Errorf("output length %d, want %d", out.Len(), len(elems))
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}

	// Resuming with a different machine shape must be refused loudly: a
	// different M or B would re-plan the runs over adopted state.
	other := Config{M: 1 << 11, B: 1 << 5}
	_, err = OpenSortJob(JobConfig{Config: other, Path: backing, Journal: journal, Resume: true}, nil)
	if err == nil {
		t.Fatal("resume with mismatched M accepted")
	}
	if !strings.Contains(err.Error(), "refusing resume") {
		t.Errorf("mismatch error does not explain the refusal: %v", err)
	}

	// Resuming with the right shape adopts the finished output with no I/O.
	job2, err := OpenSortJob(JobConfig{Config: cfg, Path: backing, Journal: journal, Resume: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer job2.Close()
	if _, _, done := job2.Resumable(); !done {
		t.Error("finished job not reported done on resume")
	}
	sys := job2.System()
	sys.ResetStats()
	out2, err := job2.Run()
	if err != nil {
		t.Fatalf("resume of finished job: %v", err)
	}
	if st := sys.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Errorf("resume of finished job performed I/O %+v", st)
	}
	if out2.Len() != int64(len(elems)) {
		t.Errorf("resumed output length %d, want %d", out2.Len(), len(elems))
	}
}

// TestSortJobFullSync runs one job in each durability grade. The power-loss
// grade fsyncs at every barrier and runs the backing-file flusher, and must
// change nothing else: the same output, the same logical Stats, the same
// journaled phases, and no goroutine left once the job is closed.
func TestSortJobFullSync(t *testing.T) {
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, 1<<13, cfg.B, 0xf5)
	type result struct {
		out   []Elem
		stats Stats
		ck    *extsort.Checkpoint
	}
	run := func(fullSync bool) result {
		dir := t.TempDir()
		jc := JobConfig{Config: cfg, Path: filepath.Join(dir, "b.dat"), Journal: filepath.Join(dir, "j.journal"), FullSync: fullSync}
		job, err := OpenSortJob(jc, func() ([]Elem, error) { return elems, nil })
		if err != nil {
			t.Fatal(err)
		}
		out, err := job.Run()
		if err != nil {
			t.Fatalf("FullSync=%v: run: %v", fullSync, err)
		}
		r := result{out: job.System().Read(out), stats: job.System().Stats()}
		if err := job.Close(); err != nil {
			t.Fatal(err)
		}
		if r.ck, err = extsort.OpenCheckpoint(jc.Journal); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.ck.Close() })
		return r
	}
	def := run(false)
	base := emio.NumGoroutines()
	full := run(true)
	emio.RequireNoGoroutineLeaks(t, base)

	if !slices.Equal(full.out, def.out) {
		t.Error("output differs from the default grade's")
	}
	if full.stats != def.stats {
		t.Errorf("Stats %v, want the default grade's %v", full.stats, def.stats)
	}
	if len(def.ck.Runs) < 2 || def.ck.Done == nil {
		t.Fatalf("default journal has %d runs, done=%v; the test needs a multi-run job that finished", len(def.ck.Runs), def.ck.Done != nil)
	}
	if !reflect.DeepEqual(full.ck.Runs, def.ck.Runs) || full.ck.RunsDone != def.ck.RunsDone ||
		full.ck.LastPass != def.ck.LastPass || !reflect.DeepEqual(full.ck.Done, def.ck.Done) {
		t.Errorf("journal: runs %d, runs-done %v, last pass %d, done %v; want the default grade's %d, %v, %d, %v",
			len(full.ck.Runs), full.ck.RunsDone, full.ck.LastPass, full.ck.Done != nil,
			len(def.ck.Runs), def.ck.RunsDone, def.ck.LastPass, def.ck.Done != nil)
	}
}
