// Package trace defines the per-cycle commit-stage record the simulated
// core emits and that every profiler model consumes.
//
// This mirrors the paper's methodology (§4): FireSim was modified to trace
// out, every cycle, the instruction address and the valid, commit,
// exception, flush, and mispredicted flags of the head ROB entry in each
// ROB bank, plus the information needed to model Dispatch and Software
// sampling out-of-band. Because all profilers observe the same stream, they
// sample the exact same cycles and differences between them are purely
// systematic.
//
// Records are reused by the producer and are read-only to consumers:
// consumers must copy anything they need to retain beyond the callback, and
// must not write to the record (see Consumer).
package trace

// MaxBanks caps the commit width the record can carry.
const MaxBanks = 8

// BankEntry is the head ROB entry of one bank in one cycle.
type BankEntry struct {
	// Valid reports the entry holds a live instruction.
	Valid bool
	// Committing reports the instruction commits this cycle.
	Committing bool
	// Mispredicted marks a resolved-mispredicted control-flow
	// instruction (branch or return).
	Mispredicted bool
	// Flush marks an instruction that flushes the pipeline when it
	// commits (CSR status-register writes on BOOM).
	Flush bool
	// Exception marks an instruction with a pending exception (page
	// fault) that will be raised when it reaches the head.
	Exception bool
	// PC is the instruction address.
	PC uint64
	// FID is the fetch-order instance ID assigned by the core. Re-fetched
	// (squashed and replayed) instructions get fresh FIDs.
	FID uint64
	// InstIndex is the static-instruction index into the program (the
	// symbol at instruction granularity); -1 if unknown.
	InstIndex int32
}

// Record is the commit-stage observation for one cycle.
type Record struct {
	// Cycle is the core cycle this record describes.
	Cycle uint64
	// NumBanks is the commit width (live entries in Banks).
	NumBanks int
	// Banks holds the head entry per bank, indexed by bank ID.
	Banks [MaxBanks]BankEntry
	// HeadBank is the bank holding the oldest instruction (Oldest ID).
	HeadBank uint8
	// ROBEmpty reports that no bank holds a valid entry.
	ROBEmpty bool
	// CommitCount is the number of instructions committing this cycle.
	CommitCount uint8

	// ExceptionRaised reports that the core raises an exception this
	// cycle (the head instruction faulted); the excepting instruction is
	// identified by the fields below. This is the event TIP's OIR Update
	// unit watches for (§3.1).
	ExceptionRaised    bool
	ExceptionPC        uint64
	ExceptionFID       uint64
	ExceptionInstIndex int32

	// DispatchValid reports an instruction is waiting at the dispatch
	// stage this cycle; Dispatch-tagging profilers sample it.
	DispatchValid     bool
	DispatchPC        uint64
	DispatchFID       uint64
	DispatchInstIndex int32

	// YoungestFID is the newest in-flight fetch ID (ROB or front-end);
	// Software profiling resumes after all of these drain.
	YoungestFID uint64
	// AnyInFlight reports whether YoungestFID is meaningful.
	AnyInFlight bool
}

// Reset prepares a producer-reused record for a new cycle. It clears every
// flag that encoder and consumers branch on, but deliberately leaves the
// flag-guarded payload fields (bank PC/FID/InstIndex and the exception,
// dispatch, and youngest-FID blocks) stale: readers are required to check
// the corresponding flag first and the encoder only serializes payloads
// whose flag is set, so stale values are unobservable. That keeps the
// per-cycle reset to a handful of byte stores instead of zeroing the whole
// ~200-byte struct — a measurable win when it runs once per simulated cycle.
func (r *Record) Reset(cycle uint64, numBanks int) {
	r.Cycle = cycle
	r.NumBanks = numBanks
	r.HeadBank = 0
	r.ROBEmpty = false
	r.CommitCount = 0
	r.ExceptionRaised = false
	r.DispatchValid = false
	r.AnyInFlight = false
	if numBanks > MaxBanks {
		numBanks = MaxBanks
	}
	for i := 0; i < numBanks; i++ {
		b := &r.Banks[i]
		b.Valid = false
		b.Committing = false
		b.Mispredicted = false
		b.Flush = false
		b.Exception = false
	}
}

// banks returns the bank count clamped to [0, MaxBanks] so the age-order
// scans below cannot index past the array on a malformed record; the
// invariant checker (internal/check) reports such records instead of
// crashing on them.
func (r *Record) banks() int {
	if r.NumBanks > MaxBanks {
		return MaxBanks
	}
	return r.NumBanks
}

// headBank returns the age-order scan start: HeadBank reduced into [0, n).
// Well-formed records already satisfy HeadBank < n; the reduction only
// matters for malformed decoded records, where it preserves the historical
// modulo semantics. The accessors below run once (or more) per replayed
// cycle per profiler, so their scans wrap by compare-and-reset instead of
// dividing on every iteration.
func (r *Record) headBank(n int) int {
	b := int(r.HeadBank)
	if b >= n {
		b %= n
	}
	return b
}

// Oldest returns the oldest valid bank entry, or nil if the ROB is empty.
func (r *Record) Oldest() *BankEntry {
	if r.ROBEmpty {
		return nil
	}
	// The oldest instruction lives in HeadBank; if that bank is invalid
	// (partially drained ROB), scan banks in age order.
	n := r.banks()
	if n <= 0 {
		return nil
	}
	b := r.headBank(n)
	for i := 0; i < n; i++ {
		if r.Banks[b].Valid {
			return &r.Banks[b]
		}
		if b++; b == n {
			b = 0
		}
	}
	return nil
}

// CommittingInAgeOrder appends the committing entries, oldest first, to dst
// and returns it.
func (r *Record) CommittingInAgeOrder(dst []*BankEntry) []*BankEntry {
	n := r.banks()
	if n <= 0 {
		return dst
	}
	b := r.headBank(n)
	for i := 0; i < n; i++ {
		if r.Banks[b].Valid && r.Banks[b].Committing {
			dst = append(dst, &r.Banks[b])
		}
		if b++; b == n {
			b = 0
		}
	}
	return dst
}

// YoungestCommitting returns the youngest committing entry this cycle, or
// nil. This is what TIP's OIR Update unit latches (§3.1).
func (r *Record) YoungestCommitting() *BankEntry {
	var out *BankEntry
	n := r.banks()
	if n <= 0 {
		return nil
	}
	b := r.headBank(n)
	for i := 0; i < n; i++ {
		if r.Banks[b].Valid && r.Banks[b].Committing {
			out = &r.Banks[b]
		}
		if b++; b == n {
			b = 0
		}
	}
	return out
}

// Consumer observes the per-cycle stream. OnCycle is called once per cycle
// with a reused record; Finish is called once when the run ends, with the
// final cycle count. A Consumer that also implements Repeater may get a
// stretch of repeated cycles as one OnRepeat call instead.
//
// The record is read-only to OnCycle. A replaying reader relies on it: when
// a non-committing record repeats the previous one, the reader leaves the
// record it filled last time in place and only advances its Cycle, so a
// consumer's write would reach every later consumer and every repeated
// cycle. The corruptor in internal/check's tests breaks this contract on
// purpose to show the checker catches a bad record; it rewrites only
// committing records, which never serve as a repeat base.
type Consumer interface {
	OnCycle(r *Record)
	Finish(totalCycles uint64)
}

// Repeater is a Consumer that can take a run of repeated records at once.
// OnRepeat(r, n) stands for n more cycles of the record the previous
// OnCycle or OnRepeat delivered, at cycles r.Cycle-n+1 through r.Cycle: r
// holds that record, unchanged but for Cycle (it may be another *Record
// with the same contents). It must leave the consumer as n OnCycle calls at
// those cycles would, and like OnCycle it must not write to r.
//
// A cpu.Core run delivers each quiescent cycle as OnRepeat(r, 1) to a
// consumer that implements it, and each core of a lockstep multicore run
// each whole stretch of them as one call. A sampled run delivers each stalled stretch
// of a measurement window as one OnCycle and one OnRepeat of the rest, so
// its Stream stores the stretch as one ring slot. A replay shard over a
// reader or a Stream ring delivers a whole stalled stretch, up to its next
// fault poll, in one call; profiler.Dispatcher and Tee forward the run to
// their Repeater members and replay it cycle by cycle, on a private copy of
// r, to the others (see Repeat).
type Repeater interface {
	Consumer
	OnRepeat(r *Record, n uint64)
}

// Repeat delivers the run OnRepeat(r, n) describes to c: in one call when c
// is a Repeater, otherwise as n OnCycle calls on scratch, a copy of r whose
// Cycle steps from r.Cycle-n+1 to r.Cycle, so r itself is never written.
func Repeat(c Consumer, r *Record, n uint64, scratch *Record) {
	if rc, ok := c.(Repeater); ok {
		rc.OnRepeat(r, n)
		return
	}
	if n == 0 {
		return
	}
	*scratch = *r
	for cyc := r.Cycle - n + 1; ; cyc++ {
		scratch.Cycle = cyc
		c.OnCycle(scratch)
		if cyc == r.Cycle {
			return
		}
	}
}

// Tee fans one stream out to several consumers. It forwards runs to the
// members that implement Repeater and replays them cycle by cycle to the
// others. It never polls its members' faults: it is not Faultable.
type Tee struct {
	Consumers []Consumer

	scratch Record
}

// OnCycle implements Consumer.
func (t *Tee) OnCycle(r *Record) {
	for _, c := range t.Consumers {
		c.OnCycle(r)
	}
}

// OnRepeat implements Repeater.
func (t *Tee) OnRepeat(r *Record, n uint64) {
	for _, c := range t.Consumers {
		Repeat(c, r, n, &t.scratch)
	}
}

// Finish implements Consumer.
func (t *Tee) Finish(totalCycles uint64) {
	for _, c := range t.Consumers {
		c.Finish(totalCycles)
	}
}

// CountingConsumer counts records; used in tests and as a cheap baseline in
// the trace-overhead ablation bench.
type CountingConsumer struct {
	Cycles   uint64
	Commits  uint64
	Finished bool
	Total    uint64
}

// OnCycle implements Consumer.
func (c *CountingConsumer) OnCycle(r *Record) {
	c.Cycles++
	c.Commits += uint64(r.CommitCount)
}

// Finish implements Consumer.
func (c *CountingConsumer) Finish(totalCycles uint64) {
	c.Finished = true
	c.Total = totalCycles
}
