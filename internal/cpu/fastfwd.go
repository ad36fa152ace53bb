package cpu

import (
	"fmt"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
)

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

// ffTageWarmTail bounds direction-predictor warming to the last stretch of
// each fast-forward leg. TAGE state is short-lived relative to cache tags:
// its longest history is a few hundred branches and its saturating counters
// converge within a few thousand executions per static branch, so training
// it across an arbitrarily long skip buys no accuracy — while costing more
// than a third of the functional loop (per-table folded-history updates on
// every conditional branch). Long-lived structures (caches, TLBs, BTB, the
// architectural RAS) warm across the whole skip regardless.
const ffTageWarmTail = 48 << 10

// ffTageWarmAlign places the start of the TAGE warm tail: warming starts at
// the first multiple of ffTageWarmAlign executed instructions at or after
// n − ffTageWarmTail. The alignment is inherited from an earlier
// fast-forward that pulled instructions in batches of this size and set
// the warming flag once per batch; the sampled goldens and benchmark pins
// were recorded with that boundary, so the walker keeps it.
const ffTageWarmAlign = 1024

// ffTageStart returns the executed-instruction index at which a leg of n
// instructions starts warming TAGE.
func ffTageStart(n uint64) uint64 {
	if n <= ffTageWarmTail {
		return 0
	}
	tail := n - ffTageWarmTail // at most 2^64-1-ffTageWarmTail: no overflow below
	return (tail + ffTageWarmAlign - 1) / ffTageWarmAlign * ffTageWarmAlign
}

// FastForward executes up to n instructions functionally: architectural
// state advances (the supply is consumed, the architectural RAS tracks
// calls and returns) and the cache, TLB and branch-predictor arrays are
// warmed roughly as full simulation would have left them — but no cycles
// elapse and no trace records are produced. Call ArchCheckpoint first so
// the in-flight instructions replay through the functional path. It returns
// how many instructions actually executed; done reports the supply ran dry
// (end of program).
//
// The replay queue drains one instruction at a time; the rest of the leg
// walks the core's stream, which must be a *program.Interp, one basic
// block at a time through ff, reading each instruction straight from its
// block. Both paths warm through warmInst, so the warmed state does not
// depend on where the replay queue ends.
func (c *Core) FastForward(ff *program.FastForward, n uint64) (executed uint64, done bool) {
	c.quietUntil = 0
	tageFrom := ffTageStart(n)
	for executed < n && (c.la.valid || c.pi < len(c.pending)) {
		d, _ := c.supplyNext()
		c.warmInst(d.SI, d.MemAddr, d.Taken, d.NextPC, executed >= tageFrom)
		executed++
	}
	if executed == n {
		return executed, false
	}
	if c.streamDone {
		return executed, true
	}
	it, ok := c.stream.(*program.Interp)
	if !ok {
		panic(fmt.Sprintf("cpu: FastForward walks a *program.Interp stream, not %T", c.stream))
	}
	for executed < n {
		insts, addrs, taken, next := ff.Step(it, n-executed)
		if len(insts) == 0 {
			c.streamDone = true
			return executed, true
		}
		last := len(insts) - 1
		for i, in := range insts[:last] {
			c.warmInst(in, addrs[i], false, insts[i+1].PC, executed+uint64(i) >= tageFrom)
		}
		executed += uint64(last)
		c.warmInst(insts[last], addrs[last], taken, next, executed >= tageFrom)
		executed++
	}
	return executed, false
}

// warmInst applies one functionally-executed instruction to the warm state,
// mirroring what the detailed front end and data path touch: I-side
// translation and cache tags once per new fetch line, D-side translation
// plus cache tags for memory operations (installing demand-faulted pages as
// the OS handler would), and for control flow the BTB, the direction
// predictor when warmTage is set, and the architectural RAS, which stands
// in for the speculative one (ResumeFrom restores it from it). addr, taken
// and next are in's DynInst.MemAddr, Taken and NextPC.
func (c *Core) warmInst(in *program.Inst, addr uint64, taken bool, next uint64, warmTage bool) {
	pc := in.PC
	if line := pc >> 6; line != c.ffLastLine {
		c.ffLastLine = line
		c.mmu.WarmFetch(pc)
		c.l1i.Warm(pc, false)
	}
	mi := &c.meta[in.Index]
	if mi.flags&metaMem != 0 {
		c.mmu.WarmData(addr)
		c.l1d.Warm(addr, mi.kind == isa.KindStore || mi.kind == isa.KindAtomic)
	}
	if mi.flags&metaControlFlow == 0 {
		return
	}
	switch mi.kind {
	case isa.KindBranch:
		if warmTage {
			c.tage.Warm(pc, taken)
		}
		if taken {
			c.btb.Warm(pc, next)
		}
	case isa.KindJump:
		c.btb.Warm(pc, next)
	case isa.KindCall:
		c.archRAS.Push(pc + isa.InstBytes)
		c.btb.Warm(pc, next)
	case isa.KindRet:
		c.archRAS.Pop(next)
	}
	if taken {
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
