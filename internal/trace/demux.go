package trace

// CoreFilter forwards one core's records out of an interleaved multi-core
// (TIPTRC3) stream to an inner consumer, translating the shared Finish into
// the per-core cycle count the inner consumer expects.
//
// A lockstep multi-programmed capture holds every core's records in one
// stream; per-core profiler stacks (Oracle, sampled profilers, the
// internal/check invariant checker) are written against a single core's
// contiguous cycle sequence. Wrapping each core's shard in a CoreFilter
// demultiplexes the replay: every shard decodes the whole stream but
// delivers only its core's records inward.
//
// Finish semantics mirror Replay: the inner consumer's total is the cycle of
// this core's last committing record plus one (the same value
// cpu.Core.FinalizeStats derives for the direct path), not the interleaved
// stream's global total.
type CoreFilter struct {
	// Core selects the records to forward.
	Core uint32
	// Inner receives the selected records.
	Inner Consumer

	lastCommit uint64
}

// OnCycle implements Consumer.
func (f *CoreFilter) OnCycle(r *Record) {
	if r.Core != f.Core {
		return
	}
	f.Inner.OnCycle(r)
	if r.CommitCount > 0 {
		f.lastCommit = r.Cycle
	}
}

// Finish implements Consumer. totalCycles is the interleaved stream's
// global total and is discarded in favour of this core's own count.
func (f *CoreFilter) Finish(totalCycles uint64) {
	f.Inner.Finish(f.lastCommit + 1)
}

// Err implements Faultable by deferring to the inner consumer, so a sharded
// replay's fault polling sees through the filter.
func (f *CoreFilter) Err() error {
	if fa, ok := f.Inner.(Faultable); ok {
		return fa.Err()
	}
	return nil
}
