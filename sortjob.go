package empart

// Crash-safe sort jobs: the orchestration layer that ties a file-backed
// System, a staged input and a checkpoint journal into a unit a process can
// be SIGKILLed out of and restarted into. A fresh job stages its input,
// journals the job shape and the staged manifest, and runs the checkpointed
// sort; a resumed job validates the journal against the configuration,
// re-opens the backing file without truncating it, adopts the staged input
// from its journaled manifest, and continues the sort from the last
// completed phase. The emsort CLI's -journal/-resume flags are a thin shell
// around this type.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/extsort"
)

// JobConfig describes a crash-safe sort job.
type JobConfig struct {
	// Config is the machine configuration. Workers sorts each run in memory
	// on that many goroutines, as in System.Sort; the runs, merge passes,
	// journal records and output are the same at every worker count, so a
	// job may resume with a different Workers than it started with.
	Config Config
	// Path is the backing file (required — manifests describe backing-file
	// extents, so checkpointing needs a file-backed disk).
	Path string
	// Journal is the checkpoint journal path (required).
	Journal string
	// Resume re-opens an existing journal and backing file instead of
	// starting fresh.
	Resume bool
	// FullSync upgrades checkpoint barriers to power-loss durability: at
	// every phase barrier the backing file and then the journal are fsync'd,
	// so a committed record never outlives its data even across a power cut.
	// Off (the default), nothing is fsync'd — data and records commit by
	// reaching the page cache, which is full durability under the
	// process-crash model (SIGKILL, OOM, panic) at near-zero wall overhead,
	// but an ill-timed power cut or kernel panic can lose phases (never
	// correctness: armed block checksums catch torn data, and the journal's
	// torn tail is truncated on resume).
	FullSync bool
}

// SortJob is one crash-safe sort: a file-backed System, the staged (or
// resume-adopted) input, and the open checkpoint journal.
type SortJob struct {
	sys *System
	ck  *extsort.Checkpoint
	in  *File
}

// OpenSortJob prepares a crash-safe sort job. For a fresh job, load supplies
// the input elements, which are staged and journaled before Run; for a
// resumed job load is not called — the input is adopted from the journal's
// staged manifest, so it must describe the same backing file the crashed job
// wrote.
func OpenSortJob(jc JobConfig, load func() ([]Elem, error)) (*SortJob, error) {
	if jc.Path == "" {
		return nil, fmt.Errorf("empart: sort job needs a backing file (checkpoint manifests describe backing-file extents)")
	}
	if jc.Journal == "" {
		return nil, fmt.Errorf("empart: sort job needs a journal path")
	}
	if jc.Resume {
		return resumeSortJob(jc)
	}
	return freshSortJob(jc, load)
}

func freshSortJob(jc JobConfig, load func() ([]Elem, error)) (*SortJob, error) {
	sys, err := NewFileBacked(jc.Config, jc.Path)
	if err != nil {
		return nil, err
	}
	ck, err := extsort.CreateCheckpoint(jc.Journal)
	if err != nil {
		sys.Close()
		return nil, err
	}
	ck.FullSync = jc.FullSync
	fail := func(err error) (*SortJob, error) {
		ck.Close()
		sys.Close()
		return nil, err
	}
	elems, err := load()
	if err != nil {
		return fail(err)
	}
	in := sys.Stage(elems)
	// Durability order: input blocks first, then the manifest that points at
	// them. In the default grade the page cache provides that order for free
	// (Manifest drains the write pipeline before the journal append); under
	// FullSync the staged blocks are fsync'd to the device first. A crash in
	// between leaves a journal with no stage record, which resume refuses —
	// never a manifest describing vapor.
	m, err := in.Manifest()
	if err != nil {
		return fail(err)
	}
	if jc.FullSync {
		if err := sys.Ctx().Disk().SyncBacking(); err != nil {
			return fail(err)
		}
	}
	if err := ck.WriteBegin(int64(len(elems)), jc.Config.M, jc.Config.B); err != nil {
		return fail(err)
	}
	if err := ck.WriteStage(m); err != nil {
		return fail(err)
	}
	return &SortJob{sys: sys, ck: ck, in: in}, nil
}

func resumeSortJob(jc JobConfig) (*SortJob, error) {
	ck, err := extsort.OpenCheckpoint(jc.Journal)
	if err != nil {
		return nil, err
	}
	ck.FullSync = jc.FullSync
	if !ck.Begun || ck.Stage == nil {
		ck.Close()
		return nil, fmt.Errorf("empart: journal %s has no staged input; nothing to resume", jc.Journal)
	}
	if ck.M != jc.Config.M || ck.B != jc.Config.B {
		ck.Close()
		return nil, fmt.Errorf("empart: journal %s was written with M=%d B=%d, refusing resume with M=%d B=%d (the run structure would differ)",
			jc.Journal, ck.M, ck.B, jc.Config.M, jc.Config.B)
	}
	sys, err := newFileBackedResume(jc.Config, jc.Path)
	if err != nil {
		ck.Close()
		return nil, err
	}
	in, err := sys.Ctx().Disk().AdoptFile(*ck.Stage, false)
	if err != nil {
		ck.Close()
		sys.Close()
		return nil, fmt.Errorf("empart: adopting staged input from %s: %w", jc.Journal, err)
	}
	return &SortJob{sys: sys, ck: ck, in: in}, nil
}

// System returns the job's System, for telemetry, stats, signal-trap
// cancellation and output readback.
func (j *SortJob) System() *System { return j.sys }

// Input returns the staged (or adopted) input file.
func (j *SortJob) Input() *File { return j.in }

// N returns the job's input size as recorded in the journal.
func (j *SortJob) N() int64 { return j.ck.N }

// Resumable reports how far the journal had progressed: completed runs and
// the last completed merge pass (-1 when merging had not started).
func (j *SortJob) Resumable() (runs int, lastPass int, done bool) {
	return len(j.ck.Runs), j.ck.LastPass, j.ck.Done != nil
}

// Run executes (or resumes) the checkpointed sort and returns the sorted
// output. On error — cancellation included — scratch created by this attempt
// is torn down; the journal keeps the completed phases, so a later resume
// does not repeat them.
//
// Under FullSync, Run keeps a background flusher active that kicks
// asynchronous writeback of the backing file every few tens of milliseconds,
// so the device absorbs each phase's output concurrently with the computation
// and the barrier fsyncs wait only for the short residual instead of a whole
// phase's output cold. The default grade needs no flusher: nothing is
// fsync'd, so there is no wait to shorten, and unforced writeback would only
// contend with the job's own reads.
func (j *SortJob) Run() (*File, error) {
	if j.ck.FullSync {
		stop := j.sys.Ctx().Disk().StartBackingFlusher(50 * time.Millisecond)
		defer stop()
	}
	return guard(j.sys, func() (*File, error) {
		return extsort.SortCheckpointed(j.sys.Ctx(), j.in, j.ck)
	})
}

// Close closes the journal and the System. The journal file itself is left
// on disk (delete it once the output has been consumed; a subsequent fresh
// job with the same journal path truncates it).
func (j *SortJob) Close() error {
	return errors.Join(j.ck.Close(), j.sys.Close())
}
