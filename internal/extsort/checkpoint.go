package extsort

// Crash-safe checkpointing for the external merge sort. A Checkpoint wraps
// an emio.Journal (CRC-framed, torn-tail tolerant) and records the sort's
// phase structure as it becomes durable:
//
//	begin  N/M/B of the job (written by the job layer, validated on resume)
//	stage  manifest of the staged input file
//	run    manifest of one completed sorted run (group-committed, see below)
//	runs-done  run formation finished; the run set is exactly the journal's
//	pass   manifests of one completed merge pass's outputs, after sync
//	done   manifest of the final sorted output
//
// The invariant behind resume correctness: a manifest is journaled only
// AFTER the blocks it points at have reached at least the same durability
// domain (File.Manifest flushes the write pipeline into the page cache;
// FullSync barriers fsync the backing file first), and the inputs a pass
// consumed are released only AFTER the pass record is committed. A crash at
// any instant therefore leaves the journal describing only intact data, and
// SortCheckpointed resumes from the last completed phase: adopted runs skip
// the input blocks they consumed, an adopted pass restarts the merge at the
// next pass, and a completed pass is never repeated. Orphaned partial
// output (a run or merge output that was being written at the crash) is
// simply not in the journal; its extents sit above the adopted allocation
// floor and are overwritten by the resumed job.
//
// Two durability grades select what "committed" means. The default targets
// the process-crash model (SIGKILL, OOM, panic — the model the crash
// harness actually tests): the page cache outlives the process, so both the
// backing-file writes and the journal appends are visible to a resumed
// process the moment the syscalls return, in program order — no fsync is
// needed anywhere, and checkpoint wall overhead is just the manifest and
// journal bookkeeping. FullSync upgrades to the power-loss model: every
// phase barrier fsyncs the backing file and then the journal, so a
// committed record never outlives its data even across a power cut — at
// the price of waiting out the device at each barrier (BENCH_pr10.json
// prices both grades). Fsyncs under FullSync are paid per phase, not per
// record — group commit: run records are appended lazily during formation
// and made durable by the runs-done barrier's fsync; each merge pass is one
// barrier, and the final pass commits through the done record directly (no
// separate pass record). In either grade the torn-tail rule holds: records
// lost to a crash merely redo that phase's work, and armed block checksums
// ride inside the manifests, so default-grade data torn by a power cut is
// detected on first read rather than silently returned.
//
// Checkpointing needs a file-backed disk (manifests describe backing-file
// extents) and trades the disk-budget consuming-merge degradation away:
// consumed blocks cannot be re-read after a crash, so the checkpointed merge
// keeps every input of the current pass live until the pass commits.

import (
	"encoding/json"
	"fmt"

	"repro/internal/emio"
)

// ckRecord is one journal record. Kind selects which of the optional fields
// are meaningful.
type ckRecord struct {
	Kind  string              `json:"kind"`
	N     int64               `json:"n,omitempty"`
	M     int                 `json:"m,omitempty"`
	B     int                 `json:"b,omitempty"`
	Pass  int                 `json:"pass,omitempty"`
	File  *emio.FileManifest  `json:"file,omitempty"`
	Files []emio.FileManifest `json:"files,omitempty"`
}

const (
	ckBegin    = "begin"
	ckStage    = "stage"
	ckRun      = "run"
	ckRunsDone = "runs-done"
	ckPass     = "pass"
	ckDone     = "done"
)

// Checkpoint is the durable phase manifest of one sort job: a journal handle
// plus the state replayed from it. A fresh Checkpoint has zero state; an
// opened one reflects the last completed phase of the crashed job.
type Checkpoint struct {
	j *emio.Journal

	// FullSync selects the power-loss durability grade: phase barriers fsync
	// the backing file and then the journal. Off (the default), nothing is
	// ever fsync'd — commit means "reached the page cache", which is full
	// durability under the process-crash model; see the package comment.
	FullSync bool

	Begun     bool                // begin record seen
	N         int64               // job input size from the begin record
	M, B      int                 // machine shape from the begin record
	Stage     *emio.FileManifest  // staged input, nil until journaled
	Runs      []emio.FileManifest // completed sorted runs, in formation order
	RunsDone  bool                // run formation completed
	LastPass  int                 // highest completed merge pass, -1 if none
	PassFiles []emio.FileManifest // outputs of LastPass
	Done      *emio.FileManifest  // final output, nil until the sort finished
}

// CreateCheckpoint starts a fresh (truncated) checkpoint journal at path.
func CreateCheckpoint(path string) (*Checkpoint, error) {
	j, err := emio.CreateJournal(path)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{j: j, LastPass: -1}, nil
}

// OpenCheckpoint replays the checkpoint journal at path, truncating any torn
// tail, and returns the reconstructed phase state ready for further appends.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	j, payloads, err := emio.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{j: j, LastPass: -1}
	for i, p := range payloads {
		var rec ckRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("extsort: checkpoint %s record %d: %w", path, i, err)
		}
		switch rec.Kind {
		case ckBegin:
			ck.Begun, ck.N, ck.M, ck.B = true, rec.N, rec.M, rec.B
		case ckStage:
			ck.Stage = rec.File
		case ckRun:
			ck.Runs = append(ck.Runs, *rec.File)
		case ckRunsDone:
			ck.RunsDone = true
		case ckPass:
			ck.LastPass, ck.PassFiles = rec.Pass, rec.Files
		case ckDone:
			ck.Done = rec.File
		default:
			j.Close()
			return nil, fmt.Errorf("extsort: checkpoint %s record %d: unknown kind %q", path, i, rec.Kind)
		}
	}
	return ck, nil
}

// Path returns the journal's path.
func (ck *Checkpoint) Path() string { return ck.j.Path() }

// Close closes the journal (the file stays for a later resume; delete it
// when the job's output has been consumed).
func (ck *Checkpoint) Close() error { return ck.j.Close() }

// append writes a barrier record: under FullSync the journal is fsync'd so
// the record (and every lazy record before it — group commit) survives power
// loss; in the default grade the append commits by reaching the page cache,
// which is all the process-crash model needs.
func (ck *Checkpoint) append(rec ckRecord) error {
	if err := ck.appendLazy(rec); err != nil {
		return err
	}
	return ck.syncJournal()
}

// appendLazy writes the record without an fsync. The next barrier append
// makes it power-loss durable under FullSync; it is already process-crash
// durable the moment WriteAt returns.
func (ck *Checkpoint) appendLazy(rec ckRecord) error {
	p, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return ck.j.AppendLazy(p)
}

// syncJournal is the journal half of a phase barrier: an fsync under
// FullSync, nothing otherwise. Skipping it in the default grade matters even
// though the journal file is tiny — on ext4's ordered mode an fsync forces a
// filesystem-journal commit that drags every dirty newly-allocated page of
// the BACKING file with it, turning a "cheap" metadata fsync into a full
// data flush.
func (ck *Checkpoint) syncJournal() error {
	if ck.FullSync {
		return ck.j.Sync()
	}
	return nil
}

// syncData is the data half of a phase barrier, placed before the record
// append: an fsync of the backing file under FullSync (power-loss grade),
// nothing otherwise — in the process-crash grade the page cache already
// guarantees SIGKILL-safe ordering, and even an "async" writeback kick here
// would block the algorithm thread on a congested device queue (under
// FullSync the job layer's background flusher overlaps that writeback with
// computation instead).
func (ck *Checkpoint) syncData(d *emio.Disk) error {
	if ck.FullSync {
		return d.SyncBacking()
	}
	return nil
}

// WriteBegin journals the job shape. The job layer writes it first so resume
// can refuse a configuration mismatch (a different M or B changes the run
// structure and would corrupt the resumed plan).
func (ck *Checkpoint) WriteBegin(n int64, m, b int) error {
	ck.Begun, ck.N, ck.M, ck.B = true, n, m, b
	return ck.append(ckRecord{Kind: ckBegin, N: n, M: m, B: b})
}

// WriteStage journals the staged input's manifest. Call only after the
// staging writes are durable (Disk.SyncBacking).
func (ck *Checkpoint) WriteStage(m emio.FileManifest) error {
	ck.Stage = &m
	return ck.append(ckRecord{Kind: ckStage, File: &m})
}

func (ck *Checkpoint) writeRun(m emio.FileManifest) error {
	ck.Runs = append(ck.Runs, m)
	return ck.appendLazy(ckRecord{Kind: ckRun, File: &m})
}

// writeRunsDone is the formation barrier: a barrier append, which under
// FullSync commits every lazily journaled run record along with itself.
func (ck *Checkpoint) writeRunsDone() error {
	ck.RunsDone = true
	return ck.append(ckRecord{Kind: ckRunsDone})
}

func (ck *Checkpoint) writePass(pass int, files []emio.FileManifest) error {
	ck.LastPass, ck.PassFiles = pass, files
	return ck.append(ckRecord{Kind: ckPass, Pass: pass, Files: files})
}

func (ck *Checkpoint) writeDone(m emio.FileManifest) error {
	ck.Done = &m
	return ck.append(ckRecord{Kind: ckDone, File: &m})
}

// SortCheckpointed is Sort with durable phase checkpoints: every completed
// run, every completed merge pass and the final output are journaled through
// ck, so a process killed mid-sort resumes from the last completed phase
// instead of restarting. A nil ck degrades to plain Sort. The logical I/O of
// a fresh checkpointed sort is identical to Sort's (journaling is physical
// fsync traffic, not block I/O); a resumed sort performs only the I/O of the
// phases that had not completed.
func SortCheckpointed(ctx *emio.Ctx, in *emio.File, ck *Checkpoint) (*emio.File, error) {
	if ck == nil {
		return Sort(ctx, in)
	}
	sp := ctx.StartSpan("extsort/sort-checkpointed", emio.AttrInt("n", in.Len()))
	defer sp.End()
	d := ctx.Disk()

	// Fully finished before the crash: adopt the output, no I/O to redo.
	if ck.Done != nil {
		return d.AdoptFile(*ck.Done, true)
	}

	// Mid-merge: adopt the outputs of the last completed pass and keep
	// merging from the next pass. Earlier passes are never repeated.
	if ck.LastPass >= 0 {
		runs := make([]*emio.File, 0, len(ck.PassFiles))
		for _, m := range ck.PassFiles {
			f, err := d.AdoptFile(m, true)
			if err != nil {
				return nil, err
			}
			runs = append(runs, f)
		}
		return mergeCheckpointed(ctx, runs, ck, ck.LastPass+1)
	}

	// Run formation, possibly partial: adopt the journaled runs and resume
	// the input scan after the blocks they consumed. Runs are cut from the
	// input in block order, so the completed runs' element count determines
	// the restart block exactly (a partial block can only be the input's
	// last, in which case formation had finished).
	var runs []*emio.File
	var consumed int64
	for i := range ck.Runs {
		f, err := d.AdoptFile(ck.Runs[i], true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, f)
		consumed += ck.Runs[i].N
	}
	if !ck.RunsDone {
		b := int64(ctx.B())
		startBlk := int((consumed + b - 1) / b)
		more, err := formRuns(ctx, in, startBlk, func(run *emio.File) error {
			// Lazy record: Manifest drains the run's pending writes so the
			// extents are final; any fsync pair is deferred to the runs-done
			// barrier below (group commit).
			m, err := run.Manifest()
			if err != nil {
				return err
			}
			return ck.writeRun(m)
		})
		if err != nil {
			return nil, err
		}
		runs = append(runs, more...)
		if err := ck.syncData(d); err != nil {
			return nil, err
		}
		if err := ck.writeRunsDone(); err != nil {
			return nil, err
		}
	}
	return mergeCheckpointed(ctx, runs, ck, 0)
}

// mergeCheckpointed is the journaled twin of MergeAllWithFanIn: identical
// logical merge structure, but each pass commits atomically — outputs are
// synced and journaled as one pass record, and only then are the pass's
// consumed inputs released. Runs carried unmerged into the next pass
// (singleton tail groups) appear in the pass record too, so the record is
// the complete run set of the next pass.
func mergeCheckpointed(ctx *emio.Ctx, runs []*emio.File, ck *Checkpoint, startPass int) (*emio.File, error) {
	d := ctx.Disk()
	// finish commits the final output: sync the data, journal the done
	// record, and only then release whatever the last pass consumed — the
	// done record doubles as that pass's commit, saving a redundant
	// sync+fsync pair on every job.
	finish := func(out *emio.File, consumed []*emio.File) (*emio.File, error) {
		m, err := out.Manifest()
		if err != nil {
			return nil, err
		}
		if err := ck.syncData(d); err != nil {
			return nil, err
		}
		if err := ck.writeDone(m); err != nil {
			return nil, err
		}
		for _, f := range consumed {
			f.Release()
		}
		return out, nil
	}
	if len(runs) == 0 {
		return finish(ctx.Scratch("sorted"), nil)
	}
	fan := mergeFanIn(ctx.M(), ctx.B())
	pass := startPass
	for len(runs) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		psp := ctx.StartSpan("extsort/merge-pass",
			emio.AttrInt("pass", int64(pass)), emio.AttrInt("runs", int64(len(runs))), emio.AttrInt("fan", int64(fan)))
		var next []*emio.File
		for lo := 0; lo < len(runs); lo += fan {
			group := runs[lo:min(lo+fan, len(runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			merged, err := mergeGroup(ctx, group, mergeOpts{})
			if err != nil {
				psp.End()
				return nil, err
			}
			next = append(next, merged)
		}
		if len(next) == 1 {
			// Final pass: commit through the done record instead of a pass
			// record; its inputs stay live until done is durable.
			consumed := make([]*emio.File, 0, len(runs))
			for _, f := range runs {
				if f != next[0] {
					consumed = append(consumed, f)
				}
			}
			psp.End()
			return finish(next[0], consumed)
		}
		// Commit the pass: sync outputs, journal their manifests as one
		// record, and only then release the inputs this pass consumed.
		manifests := make([]emio.FileManifest, len(next))
		for i, f := range next {
			m, err := f.Manifest()
			if err != nil {
				psp.End()
				return nil, err
			}
			manifests[i] = m
		}
		if err := ck.syncData(d); err != nil {
			psp.End()
			return nil, err
		}
		if err := ck.writePass(pass, manifests); err != nil {
			psp.End()
			return nil, err
		}
		carried := make(map[*emio.File]bool, len(next))
		for _, f := range next {
			carried[f] = true
		}
		for _, f := range runs {
			if !carried[f] {
				f.Release()
			}
		}
		psp.End()
		runs = next
		pass++
	}
	return finish(runs[0], nil)
}
