package cpu

import (
	"testing"

	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// TestCheckpointRestoreFidelity is the checkpoint seam's core contract: a
// core restored from a checkpoint taken mid-sweep must behave bit-identically
// to the swept core continuing serially from the same point — every trace
// record and every statistic of a detailed window must match. This is what
// lets the parallel sampled scheduler claim its windows are the serial
// schedule's windows merely executed elsewhere.
func TestCheckpointRestoreFidelity(t *testing.T) {
	const ffInsts = 30_000
	const windowCycles = 4096
	mk := func() *program.Program { return loadProgram(256<<10, program.MemStride, 120_000) }

	// The sweep: a fresh core fast-forwards functionally, then checkpoints.
	pa := mk()
	sweepInterp := program.NewInterp(pa, 7)
	sweep := New(DefaultConfig(), pa, sweepInterp)
	sweep.MMU().PrefaultAll()
	ff := program.NewFastForward(pa)
	sweep.ArchCheckpoint(0)
	if executed, done := sweep.FastForward(ff, ffInsts); done || executed != ffInsts {
		t.Fatalf("FastForward executed %d (done=%v), want %d", executed, done, ffInsts)
	}
	var cp Checkpoint
	sweep.CheckpointInto(&cp)
	snap := sweepInterp.Clone() // architectural state at the checkpoint

	// Path A: the swept core itself runs the window (the serial schedule).
	serialRecs, serialStats := runWindow(t, sweep, windowCycles, false)

	// Path B: a different core restores the checkpoint and runs the same
	// window. The worker core is built identically to the sweep core
	// (same prefault prefix), as the scheduler's workers are.
	pb := mk()
	worker := New(DefaultConfig(), pb, program.NewInterp(pb, 7))
	worker.MMU().PrefaultAll()
	worker.Restore(&cp, snap, 0) // window 0: identity-preserving seed
	restoredRecs, restoredStats := runWindow(t, worker, windowCycles, true)

	if len(serialRecs) != len(restoredRecs) {
		t.Fatalf("serial window committed %d records, restored %d", len(serialRecs), len(restoredRecs))
	}
	for i := range serialRecs {
		if serialRecs[i] != restoredRecs[i] {
			t.Fatalf("record %d diverged:\nserial   %+v\nrestored %+v", i, serialRecs[i], restoredRecs[i])
		}
	}
	if serialStats != restoredStats {
		t.Fatalf("stats diverged:\nserial   %+v\nrestored %+v", serialStats, restoredStats)
	}
}

// TestCheckpointRestoreRepeatable pins restore idempotence: restoring the
// same checkpoint into the same core twice (as a pooled worker does across
// jobs) must reproduce the window exactly.
func TestCheckpointRestoreRepeatable(t *testing.T) {
	const ffInsts = 20_000
	const windowCycles = 2048
	p := loadProgram(64<<10, program.MemStride, 100_000)
	base := program.NewInterp(p, 3)
	sweep := New(DefaultConfig(), p, base)
	sweep.MMU().PrefaultAll()
	ff := program.NewFastForward(p)
	sweep.ArchCheckpoint(0)
	if _, done := sweep.FastForward(ff, ffInsts); done {
		t.Fatal("program finished during fast-forward")
	}
	var cp Checkpoint
	sweep.CheckpointInto(&cp)

	pw := loadProgram(64<<10, program.MemStride, 100_000)
	worker := New(DefaultConfig(), pw, program.NewInterp(pw, 3))
	worker.MMU().PrefaultAll()

	worker.Restore(&cp, base.Clone(), 5)
	recs1, stats1 := runWindow(t, worker, windowCycles, true)
	// Dirty the worker further, then restore the same checkpoint again.
	worker.Restore(&cp, base.Clone(), 5)
	recs2, stats2 := runWindow(t, worker, windowCycles, true)

	if len(recs1) != len(recs2) || stats1 != stats2 {
		t.Fatalf("repeated restore diverged: %d vs %d records, stats %+v vs %+v",
			len(recs1), len(recs2), stats1, stats2)
	}
	for i := range recs1 {
		if recs1[i] != recs2[i] {
			t.Fatalf("record %d diverged across restores", i)
		}
	}
}

// TestCheckpointWindowIdentity pins the per-window identity knobs: two
// restores of one checkpoint under different window numbers must produce the
// same committed work (cycles, instructions) while drawing their fetch IDs
// from disjoint ranges — FIDs are window-relative, not execution-relative.
func TestCheckpointWindowIdentity(t *testing.T) {
	const ffInsts = 20_000
	const windowCycles = 1024
	p := loadProgram(64<<10, program.MemStride, 100_000)
	base := program.NewInterp(p, 3)
	sweep := New(DefaultConfig(), p, base)
	sweep.MMU().PrefaultAll()
	ff := program.NewFastForward(p)
	sweep.ArchCheckpoint(0)
	if _, done := sweep.FastForward(ff, ffInsts); done {
		t.Fatal("program finished during fast-forward")
	}
	var cp Checkpoint
	sweep.CheckpointInto(&cp)

	pw := loadProgram(64<<10, program.MemStride, 100_000)
	worker := New(DefaultConfig(), pw, program.NewInterp(pw, 3))
	worker.MMU().PrefaultAll()

	worker.Restore(&cp, base.Clone(), 3)
	recs3, stats3 := runWindow(t, worker, windowCycles, true)
	worker.Restore(&cp, base.Clone(), 9)
	recs9, stats9 := runWindow(t, worker, windowCycles, true)

	if stats3.Committed != stats9.Committed || stats3.Cycles != stats9.Cycles {
		t.Fatalf("window number changed committed work: %+v vs %+v", stats3, stats9)
	}
	for i := range recs3 {
		a, b := recs3[i], recs9[i]
		for j := range a.Banks {
			if a.Banks[j].Valid && a.Banks[j].FID>>40 != 3 {
				t.Fatalf("window 3 record %d bank %d has FID %#x outside its window range", i, j, a.Banks[j].FID)
			}
			if b.Banks[j].Valid && b.Banks[j].FID>>40 != 9 {
				t.Fatalf("window 9 record %d bank %d has FID %#x outside its window range", i, j, b.Banks[j].FID)
			}
			a.Banks[j].FID, b.Banks[j].FID = 0, 0
		}
		a.ExceptionFID, b.ExceptionFID = 0, 0
		a.DispatchFID, b.DispatchFID = 0, 0
		a.YoungestFID, b.YoungestFID = 0, 0
		if a != b {
			t.Fatalf("record %d differs beyond its FIDs:\nwindow3 %+v\nwindow9 %+v", i, recs3[i], recs9[i])
		}
	}
}

// runWindow steps core for n cycles from local cycle 0, returning the
// committed records and the stats delta. resumeDone tells whether the core
// was prepared by Restore (already at local cycle 0) or needs ResumeFrom.
func runWindow(t *testing.T, core *Core, n uint64, restored bool) ([]trace.Record, Stats) {
	t.Helper()
	if !restored {
		core.ResumeFrom(0)
	}
	start := core.Stats()
	var recs []trace.Record
	var rec trace.Record
	for cycle := uint64(0); cycle < n; cycle++ {
		rec = trace.Record{}
		if done, _ := core.Step(cycle, &rec); done {
			t.Fatal("program finished inside the window; enlarge the workload")
		}
		if rec.CommitCount > 0 {
			recs = append(recs, rec)
		}
	}
	s := core.Stats()
	s.Cycles -= start.Cycles
	s.Committed -= start.Committed
	s.Fetched -= start.Fetched
	s.Mispredicts -= start.Mispredicts
	s.CSRFlushes -= start.CSRFlushes
	s.Exceptions -= start.Exceptions
	s.BTBBubbles -= start.BTBBubbles
	s.StoreStallCycles -= start.StoreStallCycles
	s.PMUInterrupts -= start.PMUInterrupts
	return recs, s
}
