package cpu

import (
	"github.com/tipprof/tip/internal/branch"
	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/tlb"
)

// Checkpoint is a snapshot of the warmed hardware state a functional sweep
// has accumulated: cache hierarchy tags, both TLB levels plus the present-page
// set, and the TAGE/BTB/architectural-RAS predictors. It deliberately holds
// no pipeline state — checkpoints are taken from cores that have only ever
// executed functionally (FastForward), whose pipelines are empty and whose
// timing state (readyAt, bank busy times) is all zero, so a core restored
// from one can start a detailed leg at local cycle 0.
//
// The instruction-supply position is not part of the checkpoint: the stream
// is an interface the core cannot clone generically, so the scheduler that
// owns the sweep snapshots its interpreter separately and hands both to
// Restore.
//
// A zero-value Checkpoint is ready for use; CheckpointInto allocates its
// structures on first use and reuses them on every later snapshot, so pooled
// checkpoints are free of steady-state allocation.
type Checkpoint struct {
	hier *cache.Hierarchy
	// mmu is a pure state container: its walk path is nil, and it is never
	// asked to translate — Restore copies its entries into a core whose
	// walker reads through that core's own L1D.
	mmu     *tlb.MMU
	tage    *branch.Tage
	btb     *branch.BTB
	archRAS *branch.RAS
}

// CheckpointInto snapshots c's warmed hardware state into cp. The core must
// own a private hierarchy (built with New); cp's structures are allocated on
// first use and overwritten thereafter.
func (c *Core) CheckpointInto(cp *Checkpoint) {
	if c.hier == nil {
		panic("cpu: CheckpointInto requires a core with a private hierarchy (built with New)")
	}
	if cp.hier == nil {
		cp.hier = cache.NewHierarchy(c.cfg.Hierarchy)
		cp.mmu = tlb.New(c.cfg.TLB, nil)
		cp.tage = branch.NewTage(c.cfg.Tage)
		cp.btb = branch.NewBTB(c.cfg.BTBEntries, c.cfg.BTBWays)
		cp.archRAS = branch.NewRAS(c.cfg.RASDepth)
	}
	cp.hier.CopyFrom(c.hier)
	c.mmu.CheckpointInto(cp.mmu)
	cp.tage.CopyFrom(c.tage)
	cp.btb.CopyFrom(c.btb)
	cp.archRAS.CopyFrom(c.archRAS)
}

// windowSeedStep decorrelates per-window OS-handler streams: window w's
// handler seed is HandlerSeed + w*windowSeedStep. The constant is odd, so
// distinct windows never share a seed sequence; window 0 gets exactly
// cfg.HandlerSeed, making a window-0 restore bit-identical to a fresh core.
const windowSeedStep = 0x9e3779b97f4a7c15

// Restore rebuilds c from cp as a core about to start detailed simulation at
// local cycle 0: the warmed structures are copied in, the pipeline and all
// absolute-time execution state are reset, the speculative RAS is repaired
// from the checkpointed architectural one, and the instruction supply is
// replaced by stream (positioned where the sweep stood when the checkpoint
// was taken). window gives the restored core a deterministic identity —
// fetch IDs start at window<<40 (above any FID an earlier window can reach,
// keeping the re-sequenced stream's FIDs monotonic) and the OS-handler seed
// is derived from it — so the detailed leg's output depends only on
// (checkpoint, stream, window), never on which worker runs it or when.
// Statistics are zeroed; the caller reads the leg's stats as a pure delta.
func (c *Core) Restore(cp *Checkpoint, stream program.Stream, window uint64) {
	if c.hier == nil {
		panic("cpu: Restore requires a core with a private hierarchy (built with New)")
	}
	c.hier.CopyFrom(cp.hier)
	c.mmu.RestoreFrom(cp.mmu)
	c.tage.CopyFrom(cp.tage)
	c.btb.CopyFrom(cp.btb)
	c.archRAS.CopyFrom(cp.archRAS)
	c.ras.CopyFrom(cp.archRAS)

	// Instruction supply: the checkpoint position lives in stream alone.
	c.stream = stream
	c.streamDone = false
	c.la.valid = false
	c.pending = c.pending[:0]
	c.pi = 0

	// Empty pipeline at local cycle 0 (mirrors flushPipeline's resets, plus
	// the absolute-time state a flush leaves alone because its clock keeps
	// running — here the clock restarts).
	c.fetchBlockedUntil = 0
	c.waitBranchFID = invalidFID
	c.lastFetchLine = ^uint64(0)
	c.ffLastLine = ^uint64(0)
	c.fbHead, c.fbCount = 0, 0
	for i := range c.renameRob {
		c.renameRob[i] = -1
	}
	c.robHead, c.robTail, c.robHeadBank, c.robCount = 0, 0, 0, 0
	c.clearIssueQueues()
	c.intDivBusyUntil, c.fpDivBusyUntil = 0, 0
	c.lsqCount = 0
	c.storeBuf = c.storeBuf[:0]
	c.branchResolve = c.branchResolve[:0]
	c.serializeActive = false

	// Deterministic per-window identity.
	c.nextFID = window << 40
	c.nextUop = 0
	c.handlerSeed = c.cfg.HandlerSeed + window*windowSeedStep
	c.pmuPending = false
	c.nextSample = ^uint64(0)
	if c.sampleEvery > 0 {
		c.nextSample = c.sampleEvery
	}
	c.stats = Stats{}
	c.quietUntil = 0
}
