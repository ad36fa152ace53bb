package cpu

import (
	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
)

// coreSupply adapts the core's instruction supply (lookahead slot, replay
// queue, then workload stream) to program.Stream, so the fast-forward
// interpreter drains squashed-but-unexecuted instructions before pulling
// new ones. The pointer conversion keeps the interface value free of per
// call allocation.
type coreSupply Core

// Next implements program.Stream.
func (s *coreSupply) Next() (program.DynInst, bool) { return (*Core)(s).supplyNext() }

// ArchCheckpoint collapses the core to architectural state at cycle: every
// in-flight (uncommitted) instruction is squashed into the replay queue in
// program order, exactly as a pipeline flush would, so execution can
// continue functionally from the oldest uncommitted instruction. The caches,
// TLBs and predictors keep their contents — that accumulated state is the
// point of keeping one core alive across detailed windows.
func (c *Core) ArchCheckpoint(cycle uint64) {
	c.flushPipeline(cycle, nil)
	c.quietUntil = 0
}

// FastForward executes up to n instructions functionally: architectural
// state advances (the supply is consumed, the architectural RAS tracks
// calls and returns) and the cache, TLB and branch-predictor arrays are
// warmed roughly as full simulation would have left them — but no cycles
// elapse and no trace records are produced. Call ArchCheckpoint first so
// the in-flight instructions replay through the functional path. It returns
// how many instructions actually executed; done reports the supply ran dry
// (end of program).
// ffTageWarmTail bounds direction-predictor warming to the last stretch of
// each fast-forward leg. TAGE state is short-lived relative to cache tags:
// its longest history is a few hundred branches and its saturating counters
// converge within a few thousand executions per static branch, so training
// it across an arbitrarily long skip buys no accuracy — while costing more
// than a third of the functional loop (per-table folded-history updates on
// every conditional branch). Long-lived structures (caches, TLBs, BTB, the
// architectural RAS) warm across the whole skip regardless.
const ffTageWarmTail = 48 << 10

func (c *Core) FastForward(ff *program.FastForward, n uint64) (executed uint64, done bool) {
	c.quietUntil = 0
	tailStart := uint64(0)
	if n > ffTageWarmTail {
		tailStart = n - ffTageWarmTail
	}
	for executed < n {
		c.ffWarmTage = executed >= tailStart
		// Drain the replay queue (and lookahead) through the supply
		// adapter; once both are empty, pull straight from the workload
		// stream — the adapter's per-instruction branch checks and extra
		// copy are the dominant cost of the functional loop.
		var batch []program.DynInst
		if c.la.valid || c.pi < len(c.pending) {
			batch = ff.Fill((*coreSupply)(c), n-executed)
		} else {
			if c.streamDone {
				return executed, true
			}
			batch = ff.Fill(c.stream, n-executed)
			if len(batch) == 0 {
				c.streamDone = true
				return executed, true
			}
		}
		if len(batch) == 0 {
			return executed, true
		}
		for i := range batch {
			c.warmInst(&batch[i])
		}
		executed += uint64(len(batch))
	}
	return executed, false
}

// warmInst applies one functionally-executed instruction to the warm state,
// mirroring what the detailed front end and data path touch: I-side
// translation and cache tags once per new fetch line, the direction
// predictor and BTB for control flow (the architectural RAS stands in for
// the speculative one, which ResumeFrom restores from it), and D-side
// translation plus cache tags for memory operations — installing
// demand-faulted pages as the OS handler would.
func (c *Core) warmInst(d *program.DynInst) {
	pc := d.SI.PC
	if line := pc >> 6; line != c.ffLastLine {
		c.ffLastLine = line
		c.mmu.WarmFetch(pc)
		c.l1i.Warm(pc, false)
	}
	mi := &c.meta[d.SI.Index]
	switch mi.kind {
	case isa.KindBranch:
		if c.ffWarmTage {
			c.tage.Warm(pc, d.Taken)
		}
		if d.Taken {
			c.btb.Warm(pc, d.NextPC)
		}
	case isa.KindJump:
		c.btb.Warm(pc, d.NextPC)
	case isa.KindCall:
		c.archRAS.Push(pc + isa.InstBytes)
		c.btb.Warm(pc, d.NextPC)
	case isa.KindRet:
		c.archRAS.Pop(d.NextPC)
	}
	if mi.flags&metaMem != 0 {
		c.mmu.WarmData(d.MemAddr)
		c.l1d.Warm(d.MemAddr, mi.kind == isa.KindStore || mi.kind == isa.KindAtomic)
	}
	if mi.flags&metaControlFlow != 0 && d.Taken {
		// A taken redirect moves fetch to a new line next instruction.
		c.ffLastLine = ^uint64(0)
	}
}

// ResumeFrom prepares the core to re-enter detailed simulation at cycle
// after a fast-forward: the speculative RAS is restored from the
// architectural one and the front end unblocked immediately — the warmup
// prefix of the next detailed window absorbs the cold-start transient, so
// no modelled redirect penalty applies.
func (c *Core) ResumeFrom(cycle uint64) {
	c.ras.CopyFrom(c.archRAS)
	c.lastFetchLine = ^uint64(0)
	c.ffLastLine = ^uint64(0)
	c.waitBranchFID = invalidFID
	c.fetchBlockedUntil = cycle
	c.quietUntil = 0
}
