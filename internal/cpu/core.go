package cpu

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/tipprof/tip/internal/branch"
	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/tlb"
	"github.com/tipprof/tip/internal/trace"
)

// dep references a producing ROB entry; the reference is stale (and the
// operand ready) when the slot's uop tag no longer matches.
type dep struct {
	robIdx int32
	uop    uint64
}

// instMeta is the per-static-instruction decode packet the pipeline stages
// consume: everything dispatch/issue/execute/commit need from program.Inst,
// packed into eight bytes and indexed by Inst.Index. Building the table once
// per core replaces the per-dynamic-instance pointer chase into the much
// larger Inst struct (whose hot fields share cache lines with report strings
// and behaviour pointers) with one dense-array load.
type instMeta struct {
	lat   uint16
	kind  isa.Kind
	class isa.IssueClass
	dst   isa.Reg
	srcs  [2]isa.Reg
	flags uint8
}

const (
	metaMem uint8 = 1 << iota
	metaControlFlow
	metaSerializing
	metaFlushAtCommit
)

func buildInstMeta(prog *program.Program) []instMeta {
	meta := make([]instMeta, prog.NumInsts())
	for i := range meta {
		in := prog.InstByIndex(i)
		mi := &meta[i]
		mi.lat = uint16(isa.Latency(in.Kind))
		mi.kind = in.Kind
		mi.class = isa.IssueClassOf(in.Kind)
		mi.dst = in.Dst
		mi.srcs = in.Srcs
		if in.Kind.IsMem() {
			mi.flags |= metaMem
		}
		if in.Kind.IsControlFlow() {
			mi.flags |= metaControlFlow
		}
		if in.Kind.IsSerializing() {
			mi.flags |= metaSerializing
		}
		if in.FlushAtCommit {
			mi.flags |= metaFlushAtCommit
		}
	}
	return meta
}

// robEntry is one reorder-buffer slot.
type robEntry struct {
	d   program.DynInst
	fid uint64
	uop uint64
	// pc, instIdx and mi cache the static-instruction facts that commit,
	// issue and execute read every cycle, so the per-cycle loops never
	// dereference d.SI.
	pc      uint64
	instIdx int32
	mi      instMeta

	issued bool
	// doneCycle is when the result is available (valid once issued).
	doneCycle uint64

	deps  [2]dep
	ndeps int

	mispredicted     bool // resolved-mispredicted control flow
	exceptionPending bool // raises when it reaches the ROB head
	faultPage        uint64
}

// fetchedInst is a fetch-buffer element.
type fetchedInst struct {
	d            program.DynInst
	pc           uint64
	fid          uint64
	readyAt      uint64
	instIdx      int32
	mispredicted bool
}

const invalidFID = ^uint64(0)

// Core is the simulated out-of-order processor.
type Core struct {
	cfg  Config
	prog *program.Program
	// meta is the per-static-instruction decode table, indexed by Inst.Index.
	meta []instMeta

	// Hot-path scalars hoisted out of cfg so the per-cycle loops read small
	// adjacent fields (and index arrays) instead of a sprawling nested
	// struct. All are fixed at construction.
	commitWidth     int
	robEntries      int
	dispatchWidth   int
	fetchWidth      int
	lsqEntries      int
	storeBufCap     int
	maxBranches     int
	fetchToDispatch uint64
	redirectPenalty uint64
	btbMissBubble   uint64
	iqWidths        [isa.NumIssueClasses]int
	iqCaps          [isa.NumIssueClasses]int

	hier *cache.Hierarchy
	l1i  *cache.Cache
	l1d  *cache.Cache
	mmu  *tlb.MMU
	tage *branch.Tage
	btb  *branch.BTB
	ras  *branch.RAS
	// archRAS mirrors the RAS at commit so flushes can repair the
	// speculative fetch RAS instead of leaving it corrupted.
	archRAS *branch.RAS

	// Instruction supply.
	stream     program.Stream
	streamDone bool
	la         fetchLookahead
	pending    []program.DynInst
	pi         int
	// replayScratch is the retired backing array of pending from the last
	// pipeline flush, recycled ping-pong style so steady-state flushes
	// allocate nothing.
	replayScratch []program.DynInst

	// Front end.
	fetchBlockedUntil uint64
	waitBranchFID     uint64 // invalidFID when not waiting
	lastFetchLine     uint64
	// ffLastLine is the fast-forward warming loop's fetch-line memo (the
	// functional analogue of lastFetchLine); ^0 between fast-forwards.
	ffLastLine uint64
	// fetchBuf is a fixed ring of FetchBufEntries slots; fbHead is the
	// oldest element, fbCount the occupancy. A ring never memmoves, unlike
	// the previous append-and-compact FIFO.
	fetchBuf []fetchedInst
	fbHead   int
	fbCount  int
	nextFID  uint64

	// Rename state: architectural reg -> producing ROB slot + uop tag.
	renameRob [isa.NumRegs]int32
	renameUop [isa.NumRegs]uint64

	// ROB ring buffer. robTail is the next free slot ((robHead+robCount) mod
	// robEntries) and robHeadBank the head's commit bank (robHead mod
	// CommitWidth); both are maintained incrementally so the per-cycle loops
	// never divide. robHeadBank stays consistent across the robHead wrap
	// because config validation enforces ROBEntries % CommitWidth == 0.
	rob         []robEntry
	robHead     int
	robTail     int
	robHeadBank int
	robCount    int
	nextUop     uint64

	// Issue queues. Every unissued ROB entry is queued in its class and
	// counted in iqCount (dispatch's capacity check). iqs[class] holds the
	// pinned entries, whose ready time iqReady[slot] is known, in age
	// order; only these are scanned. An entry waiting on a producer
	// (iqReadyUnknown) is linked on exactly one unissued producer's
	// intrusive list (waitHead[producer], then waitNext[slot]; -1 ends
	// it). The producer's issue pins it into iqWoken[class], which the
	// class's next scan merges into iqs. The per-slot arrays are sized
	// ROBEntries at construction.
	iqs      [isa.NumIssueClasses][]iqEntry
	iqWoken  [isa.NumIssueClasses][]iqEntry
	iqCount  [isa.NumIssueClasses]int
	iqReady  []uint64
	waitHead []int32
	waitNext []int32

	// iqMinReady[class] lower-bounds the cycle at which that class's
	// earliest pinned entry can issue: the scan sets it, and dispatch and
	// wakeups lower it when they pin an entry. While cycle is below it, no
	// entry of the class is due and the scan is skipped.
	iqMinReady [isa.NumIssueClasses]uint64

	// Execution resources.
	intDivBusyUntil uint64
	fpDivBusyUntil  uint64
	lsqCount        int
	storeBuf        []uint64 // drain-completion cycles

	// Outstanding-branch bookkeeping: resolveAt times of unresolved
	// control flow, drained each cycle.
	branchResolve   []uint64
	serializeActive bool

	handlerSeed uint64
	pmuPending  bool
	// nextSample is the next cycle at which the PMU sampling interrupt
	// fires (^0 when sampling is off); a countdown comparison instead of
	// the previous per-cycle modulo.
	nextSample  uint64
	sampleEvery uint64

	// Quiescent-cycle horizon. After a full step in which no stage acted,
	// quietUntil is the earliest cycle at which one can act (see horizon);
	// a step before it that repeats quietRec at quietCycle+1 only sets
	// rec.Cycle and adds quietStalls, the store-stall increment of that
	// full step. quietCycle and quietRec name the last step's cycle and
	// record. perCycle disables the horizon: tests compare against it.
	quietUntil  uint64
	quietCycle  uint64
	quietRec    *trace.Record
	quietStalls uint64
	perCycle    bool

	stats Stats
}

type fetchLookahead struct {
	d     program.DynInst
	valid bool
}

// New builds a core executing prog from stream with a private memory
// hierarchy.
func New(cfg Config, prog *program.Program, stream program.Stream) *Core {
	hier := cache.NewHierarchy(cfg.Hierarchy)
	c := NewWithCaches(cfg, prog, stream, hier.L1I, hier.L1D)
	c.hier = hier
	return c
}

// NewWithCaches builds a core whose private L1 caches are supplied by the
// caller — the multi-core configuration, where per-core L1/L2 stacks share
// an LLC and DRAM (each physical core gets its own TIP unit, §3.2).
func NewWithCaches(cfg Config, prog *program.Program, stream program.Stream, l1i, l1d *cache.Cache) *Core {
	cfg.validate()
	c := &Core{
		cfg:      cfg,
		prog:     prog,
		meta:     buildInstMeta(prog),
		l1i:      l1i,
		l1d:      l1d,
		tage:     branch.NewTage(cfg.Tage),
		btb:      branch.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ras:      branch.NewRAS(cfg.RASDepth),
		archRAS:  branch.NewRAS(cfg.RASDepth),
		stream:   stream,
		rob:      make([]robEntry, cfg.ROBEntries),
		iqReady:  make([]uint64, cfg.ROBEntries),
		waitHead: make([]int32, cfg.ROBEntries),
		waitNext: make([]int32, cfg.ROBEntries),
		fetchBuf: make([]fetchedInst, cfg.FetchBufEntries),

		commitWidth:     cfg.CommitWidth,
		robEntries:      cfg.ROBEntries,
		dispatchWidth:   cfg.DispatchWidth,
		fetchWidth:      cfg.FetchWidth,
		lsqEntries:      cfg.LSQEntries,
		storeBufCap:     cfg.StoreBufEntries,
		maxBranches:     cfg.MaxBranches,
		fetchToDispatch: cfg.FetchToDispatch,
		redirectPenalty: cfg.RedirectPenalty,
		btbMissBubble:   cfg.BTBMissBubble,
		iqWidths: [isa.NumIssueClasses]int{
			isa.IssueInt: cfg.IntIQ.Width,
			isa.IssueMem: cfg.MemIQ.Width,
			isa.IssueFP:  cfg.FPIQ.Width,
		},
		iqCaps: [isa.NumIssueClasses]int{
			isa.IssueInt: cfg.IntIQ.Entries,
			isa.IssueMem: cfg.MemIQ.Entries,
			isa.IssueFP:  cfg.FPIQ.Entries,
		},
	}
	c.mmu = tlb.New(cfg.TLB, c.l1d)
	c.sampleEvery = cfg.SampleInterruptEvery
	c.nextSample = ^uint64(0)
	if c.sampleEvery > 0 {
		c.nextSample = c.sampleEvery
	}
	c.waitBranchFID = invalidFID
	c.lastFetchLine = ^uint64(0)
	c.ffLastLine = ^uint64(0)
	for i := range c.renameRob {
		c.renameRob[i] = -1
	}
	c.clearIssueQueues()
	c.handlerSeed = cfg.HandlerSeed
	// Code pages are resident (the loader touched them); data pages
	// demand-fault unless the workload prefaults them.
	c.mmu.PrefaultRange(prog.Base(), prog.CodeBytes())
	return c
}

// MMU exposes the translation machinery (workloads prefault through it).
func (c *Core) MMU() *tlb.MMU { return c.mmu }

// Hierarchy exposes the cache hierarchy for inspection; nil when the core
// was built with NewWithCaches (shared-memory configurations).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// L1D exposes the core's private data cache.
func (c *Core) L1D() *cache.Cache { return c.l1d }

// FinalizeStats records the run length after external stepping (Run does
// this automatically).
func (c *Core) FinalizeStats(lastCommitCycle uint64) {
	c.stats.Cycles = lastCommitCycle + 1
}

// Stats returns the accumulated run statistics.
func (c *Core) Stats() Stats { return c.stats }

// supplyNext pulls the next correct-path instruction: lookahead first, then
// the replay queue, then the workload stream.
func (c *Core) supplyNext() (program.DynInst, bool) {
	if c.la.valid {
		c.la.valid = false
		return c.la.d, true
	}
	if c.pi < len(c.pending) {
		d := c.pending[c.pi]
		c.pi++
		if c.pi == len(c.pending) {
			c.pending = c.pending[:0]
			c.pi = 0
		}
		return d, true
	}
	if c.streamDone {
		return program.DynInst{}, false
	}
	d, ok := c.stream.Next()
	if !ok {
		c.streamDone = true
		return program.DynInst{}, false
	}
	return d, true
}

// unread pushes an instruction back into the lookahead slot.
func (c *Core) unread(d program.DynInst) {
	if c.la.valid {
		panic("cpu: double unread")
	}
	c.la = fetchLookahead{d: d, valid: true}
}

// anySupply reports whether any instruction remains to execute.
func (c *Core) anySupply() bool {
	return c.la.valid || c.pi < len(c.pending) || !c.streamDone
}

func (c *Core) fbPush(f fetchedInst) {
	t := c.fbHead + c.fbCount
	if t >= len(c.fetchBuf) {
		t -= len(c.fetchBuf)
	}
	c.fetchBuf[t] = f
	c.fbCount++
}

func (c *Core) fbPeek() *fetchedInst { return &c.fetchBuf[c.fbHead] }

// fbPopFront drops the head element (the caller has already read it through
// fbPeek).
func (c *Core) fbPopFront() {
	if c.fbHead++; c.fbHead == len(c.fetchBuf) {
		c.fbHead = 0
	}
	c.fbCount--
}

// runsStarted counts Core.Run invocations process-wide. Tests use the delta
// to assert how many cycle-level simulations an evaluation pipeline performs.
var runsStarted atomic.Uint64

// RunsStarted returns the process-wide count of Core.Run invocations.
func RunsStarted() uint64 { return runsStarted.Load() }

// cancelMask gates how often RunContext polls its context: every
// cancelMask+1 cycles. Simulated cores retire millions of cycles per second,
// so an 8K-cycle granularity cancels within microseconds of wall-clock while
// keeping the poll invisible in the hot loop.
const cancelMask = 8191

// Run simulates until the program finishes (or MaxCycles), emitting one
// trace record per cycle to consumer. It returns the final statistics.
func (c *Core) Run(consumer trace.Consumer) (Stats, error) {
	return c.RunContext(nil, consumer)
}

// RunContext is Run with cooperative cancellation: every few thousand cycles
// it polls ctx and, if cancelled, abandons the simulation and returns
// ctx's error (wrapped). A nil ctx disables polling entirely — Run's hot
// loop stays branch-predictable. The consumer's Finish is not delivered on
// cancellation; a partially-fed capture must be Closed by the caller.
//
// A consumer that implements trace.Repeater gets each quiescent cycle's
// record through OnRepeat(r, 1); every other consumer gets one OnCycle per
// cycle.
func (c *Core) RunContext(ctx context.Context, consumer trace.Consumer) (Stats, error) {
	runsStarted.Add(1)
	rep, _ := consumer.(trace.Repeater)
	var rec trace.Record
	cycle := uint64(0)
	lastCommitCycle := uint64(0)
	for {
		// MaxCycles permits exactly that many cycles (values
		// 0..MaxCycles-1); multicore.System.run enforces the identical
		// boundary on its lockstep clock.
		if c.cfg.MaxCycles > 0 && cycle >= c.cfg.MaxCycles {
			return c.stats, fmt.Errorf("cpu: exceeded MaxCycles=%d (committed %d)", c.cfg.MaxCycles, c.stats.Committed)
		}
		if ctx != nil && cycle&cancelMask == 0 {
			if err := ctx.Err(); err != nil {
				return c.stats, fmt.Errorf("cpu: run aborted at cycle %d: %w", cycle, err)
			}
		}
		done, repeat := c.Step(cycle, &rec)
		if repeat && rep != nil {
			rep.OnRepeat(&rec, 1)
		} else if consumer != nil {
			consumer.OnCycle(&rec)
		}
		if rec.CommitCount > 0 {
			lastCommitCycle = cycle
		}
		if done {
			break
		}
		cycle++
	}
	c.stats.Cycles = lastCommitCycle + 1
	if consumer != nil {
		consumer.Finish(c.stats.Cycles)
	}
	return c.stats, nil
}

// Step advances the machine one cycle: commit (filling rec with the
// commit-stage observation), issue, dispatch, fetch. It reports whether the
// machine is fully drained with no supply left, and whether the cycle was
// quiescent and skipped: rec then repeats the previous cycle's record, one
// cycle later. RunContext drives it for a whole single-core run; a caller
// that steps the core itself (the lockstep multi-core system, a sampled
// run's detailed legs) gets the same records.
//
// A caller that passes the same rec, unmodified but for Cycle, at one cycle
// higher than the previous Step lets the core skip quiescent cycles. A full
// step in which nothing commits, issues, dispatches or is fetched, no
// exception, interrupt or flush is raised and no branch-resolve entry
// expires leaves the pipeline as it found it, and so would every later step
// up to the horizon, the first cycle at which a time comparison in some
// stage can flip. Until then Step leaves rec as the last full step filled
// it, sets only its Cycle and reports repeat; only the store-stall count
// moves. Any other call gets a full step. A full step's issue stage scans
// only the queues holding a due entry; an entry waiting on a producer is
// woken by that producer's issue, not re-checked.
func (c *Core) Step(cycle uint64, rec *trace.Record) (done, repeat bool) {
	if cycle < c.quietUntil && cycle == c.quietCycle+1 && rec == c.quietRec {
		c.quietCycle = cycle
		rec.Cycle = cycle
		c.stats.StoreStallCycles += c.quietStalls
		return c.drained(), true
	}
	c.quietUntil = 0
	uop, fid := c.nextUop, c.nextFID
	stalls, intr, branches := c.stats.StoreStallCycles, c.stats.PMUInterrupts, len(c.branchResolve)
	c.drainBranchResolve(cycle)
	if cycle >= c.nextSample {
		// >= (not ==) keeps the countdown correct even if a caller steps
		// past the boundary cycle; Run and the lockstep multi-core driver
		// both advance one cycle at a time, so in practice it fires exactly
		// on the old cycle%SampleInterruptEvery == 0 schedule.
		c.pmuPending = true
		c.nextSample += c.sampleEvery
	}
	c.commit(cycle, rec)
	issued := c.issue(cycle)
	c.dispatch(cycle)
	c.fetch(cycle)
	c.quietCycle, c.quietRec = cycle, rec
	if rec.CommitCount == 0 && !rec.ExceptionRaised && !issued && c.nextUop == uop &&
		c.nextFID == fid && c.stats.PMUInterrupts == intr && len(c.branchResolve) == branches && !c.perCycle {
		c.quietStalls = c.stats.StoreStallCycles - stalls
		c.quietUntil = c.horizon(cycle)
	}
	return c.drained(), false
}

// drained reports whether the machine is empty with no supply left.
func (c *Core) drained() bool {
	return c.robCount == 0 && c.fbCount == 0 && !c.anySupply()
}

// horizon returns the earliest cycle after a quiescent one at which a stage
// can act, by a time comparison flipping: the ROB head completes, a store-
// buffer entry drains, a branch-resolve entry expires, the fetch-buffer head
// becomes dispatchable, fetch unblocks, a divider frees, an issue queue's
// pinned ready bound arrives or the PMU samples. Everything else that can
// unblock a stage is itself an act; a waiting issue-queue entry, in
// particular, is pinned only by its producer's issue. Past times (at or
// below cycle) are events that already happened and bound nothing, except
// that a due ready bound or sample stops the skip outright.
func (c *Core) horizon(cycle uint64) uint64 {
	h := c.nextSample
	for _, m := range c.iqMinReady {
		h = min(h, m)
	}
	if c.robCount > 0 {
		if e := &c.rob[c.robHead]; e.issued {
			h = earlier(h, e.doneCycle, cycle)
		}
	}
	for _, t := range c.storeBuf {
		h = earlier(h, t, cycle)
	}
	for _, t := range c.branchResolve {
		h = earlier(h, t, cycle)
	}
	if c.fbCount > 0 {
		h = earlier(h, c.fetchBuf[c.fbHead].readyAt, cycle)
	}
	h = earlier(h, c.fetchBlockedUntil, cycle)
	h = earlier(h, c.intDivBusyUntil, cycle)
	return earlier(h, c.fpDivBusyUntil, cycle)
}

// earlier lowers the horizon h to t when t is a future cycle before it.
func earlier(h, t, cycle uint64) uint64 {
	if t > cycle && t < h {
		return t
	}
	return h
}

func (c *Core) drainBranchResolve(cycle uint64) {
	if len(c.branchResolve) == 0 {
		return
	}
	out := c.branchResolve[:0]
	for _, t := range c.branchResolve {
		if t > cycle {
			out = append(out, t)
		}
	}
	c.branchResolve = out
}

// ---------------------------------------------------------------------------
// Commit stage

// commit records the commit-stage state for this cycle and retires up to
// CommitWidth executed instructions, handling exceptions, flushing CSRs,
// and store-buffer pressure.
func (c *Core) commit(cycle uint64, rec *trace.Record) {
	cw := c.commitWidth
	rec.Reset(cycle, cw)

	if c.robCount == 0 {
		rec.ROBEmpty = true
	} else {
		rec.HeadBank = uint8(c.robHeadBank)
		n := c.robCount
		if n > cw {
			n = cw
		}
		slot := c.robHead
		bank := c.robHeadBank
		for i := 0; i < n; i++ {
			e := &c.rob[slot]
			b := &rec.Banks[bank]
			b.Valid = true
			b.PC = e.pc
			b.FID = e.fid
			b.InstIndex = e.instIdx
			b.Mispredicted = e.mispredicted
			b.Flush = e.mi.flags&metaFlushAtCommit != 0
			b.Exception = e.exceptionPending
			if slot++; slot == c.robEntries {
				slot = 0
			}
			if bank++; bank == cw {
				bank = 0
			}
		}
	}

	// PMU sampling interrupt: taken at the next cycle boundary, draining
	// in-flight work into the OS handler (perf's CSR-copy path, §3.2).
	if c.pmuPending {
		c.pmuPending = false
		c.stats.PMUInterrupts++
		c.observeFrontEnd(cycle, rec)
		c.raiseInterrupt(cycle)
		return
	}

	// Exception: raised when the excepting instruction is at the head
	// and its page walk has completed.
	if c.robCount > 0 {
		h := &c.rob[c.robHead]
		if h.exceptionPending && h.issued && h.doneCycle <= cycle {
			rec.ExceptionRaised = true
			rec.ExceptionPC = h.pc
			rec.ExceptionFID = h.fid
			rec.ExceptionInstIndex = h.instIdx
			c.observeFrontEnd(cycle, rec)
			c.raiseException(cycle, h)
			return
		}
	}

	committed := 0
	for committed < cw && c.robCount > 0 {
		e := &c.rob[c.robHead]
		if !e.issued || e.doneCycle > cycle {
			break
		}
		if e.exceptionPending {
			// Became head mid-group; raise next cycle.
			break
		}
		kind := e.mi.kind
		if kind == isa.KindStore {
			if !c.retireStore(e, cycle) {
				c.stats.StoreStallCycles++
				break
			}
		}
		rec.Banks[c.robHeadBank].Committing = true
		committed++
		c.stats.Committed++
		switch kind {
		case isa.KindCall:
			c.archRAS.Push(e.pc + isa.InstBytes)
		case isa.KindRet:
			c.archRAS.Pop(e.d.NextPC)
		}
		// Clear rename mappings that point at the retiring entry.
		if dst := e.mi.dst; dst != isa.RegZero {
			if c.renameRob[dst] == int32(c.robHead) && c.renameUop[dst] == e.uop {
				c.renameRob[dst] = -1
			}
		}
		if e.mi.flags&metaSerializing != 0 {
			c.serializeActive = false
		}
		flush := e.mi.flags&metaFlushAtCommit != 0
		e.uop = 0 // invalidate tag so dependents see ready
		if c.robHead++; c.robHead == c.robEntries {
			c.robHead = 0
		}
		if c.robHeadBank++; c.robHeadBank == cw {
			c.robHeadBank = 0
		}
		c.robCount--
		if e.mi.flags&metaMem != 0 {
			c.lsqCount--
		}
		if flush {
			c.stats.CSRFlushes++
			c.observeFrontEnd(cycle, rec)
			rec.CommitCount = uint8(committed)
			c.flushPipeline(cycle, nil)
			return
		}
	}
	rec.CommitCount = uint8(committed)
	c.observeFrontEnd(cycle, rec)
}

// retireStore pushes a committing store into the store buffer; it reports
// false when the buffer is full (the store stalls at the head).
func (c *Core) retireStore(e *robEntry, cycle uint64) bool {
	// Drop drained entries.
	out := c.storeBuf[:0]
	for _, t := range c.storeBuf {
		if t > cycle {
			out = append(out, t)
		}
	}
	c.storeBuf = out
	if len(c.storeBuf) >= c.storeBufCap {
		return false
	}
	done := c.l1d.Access(e.d.MemAddr, true, cycle)
	c.storeBuf = append(c.storeBuf, done)
	return true
}

// observeFrontEnd fills the dispatch-stage and youngest-in-flight fields.
func (c *Core) observeFrontEnd(cycle uint64, rec *trace.Record) {
	switch {
	case c.fbCount > 0:
		f := &c.fetchBuf[c.fbHead]
		if f.readyAt <= cycle {
			rec.DispatchValid = true
			rec.DispatchPC = f.pc
			rec.DispatchFID = f.fid
			rec.DispatchInstIndex = f.instIdx
		}
		rec.AnyInFlight = true
		t := c.fbHead + c.fbCount - 1
		if t >= len(c.fetchBuf) {
			t -= len(c.fetchBuf)
		}
		rec.YoungestFID = c.fetchBuf[t].fid
	case c.robCount > 0:
		rec.AnyInFlight = true
		tail := c.robTail
		if tail == 0 {
			tail = c.robEntries
		}
		tail--
		rec.YoungestFID = c.rob[tail].fid
	default:
		// The whole machine retired this cycle (commit has already
		// drained the ROB by the time this runs), but the instructions
		// recorded in the banks were still in flight when the commit
		// stage observed them: the record must cover their FIDs.
		for i := 0; i < rec.NumBanks; i++ {
			if b := &rec.Banks[i]; b.Valid && (!rec.AnyInFlight || b.FID > rec.YoungestFID) {
				rec.AnyInFlight = true
				rec.YoungestFID = b.FID
			}
		}
	}
}

// raiseInterrupt squashes all in-flight instructions and redirects fetch to
// the OS handler; the squashed instructions replay afterwards. This is the
// PMU sampling interrupt (the handler stands in for perf copying TIP's six
// CSRs into its memory buffer).
func (c *Core) raiseInterrupt(cycle uint64) {
	var handlerInsts []program.DynInst
	if hf := c.prog.Handler(); hf != nil {
		it := program.NewInterpFunc(c.prog, hf, c.handlerSeed)
		c.handlerSeed = c.handlerSeed*6364136223846793005 + 1
		for {
			d, ok := it.Next()
			if !ok {
				break
			}
			handlerInsts = append(handlerInsts, d)
			if len(handlerInsts) > 100000 {
				panic("cpu: runaway interrupt handler")
			}
		}
	}
	c.flushPipeline(cycle, handlerInsts)
}

// raiseException squashes everything (the excepting instruction included),
// installs the missing page, and redirects fetch to the OS handler followed
// by replay of the squashed instructions.
func (c *Core) raiseException(cycle uint64, h *robEntry) {
	c.stats.Exceptions++
	c.mmu.InstallPage(h.faultPage)

	var handlerInsts []program.DynInst
	if hf := c.prog.Handler(); hf != nil {
		it := program.NewInterpFunc(c.prog, hf, c.handlerSeed)
		c.handlerSeed = c.handlerSeed*6364136223846793005 + 1
		for {
			d, ok := it.Next()
			if !ok {
				break
			}
			handlerInsts = append(handlerInsts, d)
			if len(handlerInsts) > 100000 {
				panic("cpu: runaway exception handler")
			}
		}
	}
	c.flushPipeline(cycle, handlerInsts)
}

// flushPipeline squashes all in-flight instructions (ROB and front end) and
// queues prefix + squashed instructions for refetch. The ROB entries that
// remain are all younger than the flush point because the caller has already
// retired everything older.
func (c *Core) flushPipeline(cycle uint64, prefix []program.DynInst) {
	need := len(prefix) + c.robCount + c.fbCount + 2 + len(c.pending) - c.pi
	replay := c.replayScratch[:0]
	if cap(replay) < need {
		replay = make([]program.DynInst, 0, need)
	}
	replay = append(replay, prefix...)
	slot := c.robHead
	for i := 0; i < c.robCount; i++ {
		replay = append(replay, c.rob[slot].d)
		c.rob[slot].uop = 0
		if slot++; slot == c.robEntries {
			slot = 0
		}
	}
	fb := c.fbHead
	for i := 0; i < c.fbCount; i++ {
		replay = append(replay, c.fetchBuf[fb].d)
		if fb++; fb == len(c.fetchBuf) {
			fb = 0
		}
	}
	if c.la.valid {
		replay = append(replay, c.la.d)
		c.la.valid = false
	}
	replay = append(replay, c.pending[c.pi:]...)

	// Ping-pong: the old pending array becomes the next flush's scratch.
	// replay was built above (including the tail copy from c.pending), so
	// the two backing arrays never alias live data.
	c.replayScratch = c.pending[:0]
	c.pending = replay
	c.pi = 0
	c.robCount = 0
	c.robHead = 0
	c.robTail = 0
	c.robHeadBank = 0
	c.fbHead = 0
	c.fbCount = 0
	for i := range c.renameRob {
		c.renameRob[i] = -1
	}
	c.clearIssueQueues()
	c.lsqCount = 0
	c.branchResolve = c.branchResolve[:0]
	c.serializeActive = false
	c.waitBranchFID = invalidFID
	c.lastFetchLine = ^uint64(0)
	c.ras.CopyFrom(c.archRAS)
	c.fetchBlockedUntil = cycle + c.redirectPenalty
}

// ---------------------------------------------------------------------------
// Issue/execute

// iqEntry is one issue-queue slot: the ROB index and the kind the unit check
// needs. Readiness lives in Core.iqReady; a waiting entry is on its
// producer's wakeup list, not in a queue the scan visits.
type iqEntry struct {
	idx  int32
	kind isa.Kind
}

// iqReadyUnknown marks an issue-queue entry whose ready time is not yet
// computable (some producer has not issued). Cycle numbers never reach it.
const iqReadyUnknown = ^uint64(0)

// issue selects ready instructions from each queue, oldest first, computes
// their completion times and wakes their waiting consumers. It reports
// whether anything issued.
func (c *Core) issue(cycle uint64) bool {
	acted := false
	for class := 0; class < isa.NumIssueClasses; class++ {
		if cycle < c.iqMinReady[class] {
			continue // no pinned entry is due this cycle
		}
		if len(c.iqWoken[class]) > 0 {
			c.mergeWoken(class)
		}
		// Wakes during this scan lower the bound for the entries they pin.
		c.iqMinReady[class] = iqReadyUnknown
		width := c.iqWidths[class]
		iq := c.iqs[class]
		issued := 0
		w := 0
		minNext := iqReadyUnknown
		for r := 0; r < len(iq); r++ {
			if issued == width {
				// Width exhausted: everything younger stays queued; one
				// bulk copy instead of per-entry moves. Ready entries may
				// be waiting in the unscanned tail.
				w += copy(iq[w:], iq[r:])
				minNext = cycle + 1
				break
			}
			en := iq[r]
			if ra := c.iqReady[en.idx]; cycle < ra || !c.unitFree(en.kind, cycle) {
				minNext = min(minNext, max(ra, cycle+1))
				if w != r {
					iq[w] = en
				}
				w++
				continue
			}
			c.execute(&c.rob[en.idx], cycle)
			c.wake(en.idx)
			issued++
		}
		c.iqs[class] = iq[:w]
		c.iqCount[class] -= issued
		c.iqMinReady[class] = min(c.iqMinReady[class], minNext)
		acted = acted || issued > 0
	}
	return acted
}

// mergeWoken moves class's woken entries into its queue, keeping the queue
// in age order. Their ready times are already in iqMinReady.
func (c *Core) mergeWoken(class int) {
	iq := c.iqs[class]
	for _, en := range c.iqWoken[class] {
		a := c.age(en.idx)
		i := len(iq)
		iq = append(iq, en)
		for ; i > 0 && c.age(iq[i-1].idx) > a; i-- {
			iq[i] = iq[i-1]
		}
		iq[i] = en
	}
	c.iqs[class] = iq
	c.iqWoken[class] = c.iqWoken[class][:0]
}

// age orders in-flight ROB slots: the ROB head is 0, the tail the largest.
func (c *Core) age(s int32) int {
	a := int(s) - c.robHead
	if a < 0 {
		a += c.robEntries
	}
	return a
}

// clearIssueQueues empties every issue queue and wakeup list for a squash
// or a restore.
func (c *Core) clearIssueQueues() {
	for i := range c.iqs {
		c.iqs[i] = c.iqs[i][:0]
		c.iqWoken[i] = c.iqWoken[i][:0]
		c.iqCount[i] = 0
		c.iqMinReady[i] = 0
	}
	for i := range c.waitHead {
		c.waitHead[i] = -1
	}
}

// tryReady pins queued slot s's ready time if every still-matching producer
// has issued, lowering its class's iqMinReady, and reports true; otherwise
// it links s onto the first unissued producer's wakeup list. The bound
// never moves once computable (doneCycle is fixed at issue), and every done
// time is at least the issue cycle+1, so a consumer woken at its
// producer's issue cannot issue in that cycle.
func (c *Core) tryReady(s int32) bool {
	e := &c.rob[s]
	bound := uint64(0)
	for i := 0; i < e.ndeps; i++ {
		d := e.deps[i]
		p := &c.rob[d.robIdx]
		if p.uop != d.uop {
			continue // producer retired or squashed: value in regfile
		}
		if !p.issued {
			c.iqReady[s] = iqReadyUnknown
			c.waitNext[s] = c.waitHead[d.robIdx]
			c.waitHead[d.robIdx] = s
			return false
		}
		bound = max(bound, p.doneCycle)
	}
	c.iqReady[s] = bound
	if class := e.mi.class; bound < c.iqMinReady[class] {
		c.iqMinReady[class] = bound
	}
	return true
}

// wake re-runs tryReady for every consumer waiting on the just-issued slot
// p: each is pinned and queued in iqWoken, or linked onto its next
// unissued producer.
func (c *Core) wake(p int32) {
	s := c.waitHead[p]
	c.waitHead[p] = -1
	for s >= 0 {
		next := c.waitNext[s]
		if c.tryReady(s) {
			mi := &c.rob[s].mi
			c.iqWoken[mi.class] = append(c.iqWoken[mi.class], iqEntry{idx: s, kind: mi.kind})
		}
		s = next
	}
}

func (c *Core) unitFree(kind isa.Kind, cycle uint64) bool {
	switch kind {
	case isa.KindIntDiv:
		return c.intDivBusyUntil <= cycle
	case isa.KindFPDiv:
		return c.fpDivBusyUntil <= cycle
	}
	return true
}

// execute computes e's completion time, accessing the memory system for
// loads/stores and resolving control flow.
func (c *Core) execute(e *robEntry, cycle uint64) {
	e.issued = true
	kind := e.mi.kind
	lat := uint64(e.mi.lat)

	switch kind {
	case isa.KindLoad:
		tr := c.mmu.TranslateData(e.d.MemAddr, cycle+1)
		if tr.Fault {
			e.exceptionPending = true
			e.faultPage = tlb.PageOf(e.d.MemAddr)
			e.doneCycle = tr.Done
		} else {
			e.doneCycle = c.l1d.Access(e.d.MemAddr, false, tr.Done)
		}
	case isa.KindStore:
		tr := c.mmu.TranslateData(e.d.MemAddr, cycle+1)
		if tr.Fault {
			e.exceptionPending = true
			e.faultPage = tlb.PageOf(e.d.MemAddr)
			e.doneCycle = tr.Done
		} else {
			// Address+data resolved; the write happens at commit.
			e.doneCycle = tr.Done + 1
		}
	case isa.KindAtomic:
		tr := c.mmu.TranslateData(e.d.MemAddr, cycle+1)
		if tr.Fault {
			e.exceptionPending = true
			e.faultPage = tlb.PageOf(e.d.MemAddr)
			e.doneCycle = tr.Done
		} else {
			e.doneCycle = c.l1d.Access(e.d.MemAddr, true, tr.Done) + lat
		}
	case isa.KindIntDiv:
		e.doneCycle = cycle + lat
		c.intDivBusyUntil = e.doneCycle
	case isa.KindFPDiv:
		e.doneCycle = cycle + lat
		c.fpDivBusyUntil = e.doneCycle
	default:
		e.doneCycle = cycle + lat
	}

	if e.mi.flags&metaControlFlow != 0 {
		c.branchResolve = append(c.branchResolve, e.doneCycle)
		if e.fid == c.waitBranchFID {
			// Mispredict resolved: fetch restarts on the correct path.
			c.waitBranchFID = invalidFID
			c.fetchBlockedUntil = max(c.fetchBlockedUntil, e.doneCycle+c.redirectPenalty)
			c.lastFetchLine = ^uint64(0)
		}
	}
}

// ---------------------------------------------------------------------------
// Dispatch

// dispatch moves up to DispatchWidth instructions from the fetch buffer
// into the ROB and issue queues, enforcing resource limits and serialization.
func (c *Core) dispatch(cycle uint64) {
	if c.serializeActive {
		return
	}
	for n := 0; n < c.dispatchWidth; n++ {
		if c.fbCount == 0 {
			return
		}
		f := &c.fetchBuf[c.fbHead]
		if f.readyAt > cycle {
			return
		}
		mi := c.meta[f.instIdx]
		if mi.flags&metaSerializing != 0 && c.robCount != 0 {
			return // drain before dispatching a serialized instruction
		}
		if c.robCount == c.robEntries {
			return
		}
		class := mi.class
		if c.iqCount[class] >= c.iqCaps[class] {
			return
		}
		if mi.flags&metaMem != 0 && c.lsqCount >= c.lsqEntries {
			return
		}
		if mi.flags&metaControlFlow != 0 && len(c.branchResolve) >= c.maxBranches {
			return
		}

		slot := c.robTail
		if c.robTail++; c.robTail == c.robEntries {
			c.robTail = 0
		}
		c.robCount++
		c.nextUop++
		e := &c.rob[slot]
		*e = robEntry{
			d:            f.d,
			fid:          f.fid,
			uop:          c.nextUop,
			pc:           f.pc,
			instIdx:      f.instIdx,
			mi:           mi,
			mispredicted: f.mispredicted,
		}
		c.fbPopFront()
		for _, src := range mi.srcs {
			if src == isa.RegZero {
				continue
			}
			if p := c.renameRob[src]; p >= 0 {
				e.deps[e.ndeps] = dep{robIdx: p, uop: c.renameUop[src]}
				e.ndeps++
			}
		}
		if dst := mi.dst; dst != isa.RegZero {
			c.renameRob[dst] = int32(slot)
			c.renameUop[dst] = c.nextUop
		}
		if mi.flags&metaMem != 0 {
			c.lsqCount++
		}
		c.iqCount[class]++
		if c.tryReady(int32(slot)) {
			// The youngest entry in flight: the queue's tail keeps age order.
			c.iqs[class] = append(c.iqs[class], iqEntry{idx: int32(slot), kind: mi.kind})
		}
		if mi.flags&metaSerializing != 0 {
			c.serializeActive = true
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Fetch

// fetch fills the fetch buffer with correct-path instructions, modelling
// I-cache/I-TLB latency per line, branch prediction, BTB bubbles, and
// blocking on unresolved mispredictions.
func (c *Core) fetch(cycle uint64) {
	if cycle < c.fetchBlockedUntil || c.waitBranchFID != invalidFID {
		return
	}
	for delivered := 0; delivered < c.fetchWidth; delivered++ {
		if c.fbCount >= len(c.fetchBuf) {
			return
		}
		d, ok := c.supplyNext()
		if !ok {
			return
		}
		si := d.SI
		pc := si.PC
		kind := si.Kind
		line := pc >> 6
		if line != c.lastFetchLine {
			tr := c.mmu.TranslateFetch(pc, cycle)
			if tr.Fault {
				// Code pages are prefaulted; an I-side fault means a
				// workload bug.
				panic(fmt.Sprintf("cpu: instruction fetch fault at %#x", pc))
			}
			done := c.l1i.Access(pc, false, tr.Done)
			c.lastFetchLine = line
			if done > cycle+1 {
				c.fetchBlockedUntil = done
				c.unread(d)
				return
			}
		}

		fid := c.nextFID
		c.nextFID++
		c.stats.Fetched++
		mispred := false
		bubble := false
		switch kind {
		case isa.KindBranch:
			if c.tage.PredictUpdate(pc, d.Taken) != d.Taken {
				mispred = true
			} else if d.Taken {
				bubble = !c.btb.Probe(pc, d.NextPC)
			}
		case isa.KindJump:
			bubble = !c.btb.Probe(pc, d.NextPC)
		case isa.KindCall:
			c.ras.Push(pc + isa.InstBytes)
			bubble = !c.btb.Probe(pc, d.NextPC)
		case isa.KindRet:
			if d.NextPC != 0 { // 0 = end of program
				if _, correct := c.ras.Pop(d.NextPC); !correct {
					mispred = true
				}
			}
		}

		c.fbPush(fetchedInst{
			d:            d,
			pc:           pc,
			fid:          fid,
			readyAt:      cycle + c.fetchToDispatch,
			instIdx:      int32(si.Index),
			mispredicted: mispred,
		})

		if mispred {
			c.stats.Mispredicts++
			// Fetch stalls until the mispredicted instruction
			// resolves at execute.
			c.waitBranchFID = fid
			return
		}
		if bubble {
			c.stats.BTBBubbles++
			c.fetchBlockedUntil = cycle + c.btbMissBubble
			c.lastFetchLine = ^uint64(0)
			return
		}
		if kind.IsControlFlow() && d.Taken {
			// A taken redirect ends the fetch group.
			c.lastFetchLine = ^uint64(0)
			return
		}
	}
}
