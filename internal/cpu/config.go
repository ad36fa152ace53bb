// Package cpu models the 4-wide out-of-order core of Table 1 — a
// BOOM-style machine with an in-order front end (fetch through dispatch), a
// banked reorder buffer, per-class issue queues, a load/store unit backed by
// the cache hierarchy, and a commit stage that emits the per-cycle trace
// records every profiler consumes.
//
// The model is trace-driven on the correct path: the workload interpreter
// supplies committed-path dynamic instructions, and speculation is modelled
// through its timing effects (front-end stalls on mispredicted branches,
// squash-and-refetch on commit-time flushes and exceptions) rather than by
// executing wrong-path instructions. This matches the paper's observation
// point — the commit stage — exactly: Computing, Stalled, Flushed and
// Drained states (Fig. 3) all arise naturally from the pipeline dynamics.
package cpu

import (
	"github.com/tipprof/tip/internal/branch"
	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/tlb"
	"github.com/tipprof/tip/internal/trace"
)

// IQConfig sizes one issue queue.
type IQConfig struct {
	// Entries is the queue capacity.
	Entries int
	// Width is the per-cycle issue width.
	Width int
}

// Config parameterises the core; DefaultConfig matches Table 1.
type Config struct {
	// FetchWidth is instructions fetched per cycle (8-wide fetch).
	FetchWidth int
	// FetchBufEntries is the fetch buffer capacity (32).
	FetchBufEntries int
	// DispatchWidth is decode/dispatch width (4-wide decode).
	DispatchWidth int
	// FetchToDispatch is the front-end depth in cycles from fetch to
	// dispatch-ready (decode, rename, dispatch stages).
	FetchToDispatch uint64
	// ROBEntries is the reorder buffer capacity (128).
	ROBEntries int
	// CommitWidth is the commit width and ROB bank count (4).
	CommitWidth int
	// IntIQ, MemIQ, FPIQ size the issue queues (40/4-issue, 24/2-issue,
	// 32/2-issue).
	IntIQ, MemIQ, FPIQ IQConfig
	// LSQEntries bounds in-flight loads+stores (32).
	LSQEntries int
	// StoreBufEntries bounds committed stores draining to the L1D.
	StoreBufEntries int
	// MaxBranches bounds outstanding unresolved branches (20).
	MaxBranches int
	// BTBEntries/BTBWays/RASDepth size the target predictors.
	BTBEntries, BTBWays, RASDepth int
	// BTBMissBubble is the front-end bubble when a taken control-flow
	// instruction misses the BTB (target fixed at decode).
	BTBMissBubble uint64
	// RedirectPenalty is the delay from resolving a mispredict (or
	// committing a flushing instruction) to fetch restarting.
	RedirectPenalty uint64
	// MaxCycles aborts runaway simulations after exactly this many cycles
	// (cycle values 0..MaxCycles-1 may execute); 0 means no cap.
	MaxCycles uint64
	// ClockHz is the nominal core frequency (for data-rate reporting
	// only; the simulator is cycle-based).
	ClockHz uint64

	// Hierarchy configures the caches and DRAM.
	Hierarchy cache.HierarchyConfig
	// TLB configures address translation.
	TLB tlb.Config
	// Tage configures the direction predictor.
	Tage branch.TageConfig

	// HandlerSeed seeds the OS fault-handler instruction streams.
	HandlerSeed uint64

	// SampleInterruptEvery, when nonzero, injects a PMU sampling
	// interrupt every that many cycles: the pipeline drains, the OS
	// handler runs (modelling perf copying TIP's CSRs to its buffer),
	// and the squashed instructions replay — the §3.2 sampling-overhead
	// mechanism. Zero disables interrupt modelling (profilers then
	// observe the trace out-of-band with no perturbation, like the
	// paper's FireSim methodology).
	SampleInterruptEvery uint64
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      8,
		FetchBufEntries: 32,
		DispatchWidth:   4,
		FetchToDispatch: 5,
		ROBEntries:      128,
		CommitWidth:     4,
		IntIQ:           IQConfig{Entries: 40, Width: 4},
		MemIQ:           IQConfig{Entries: 24, Width: 2},
		FPIQ:            IQConfig{Entries: 32, Width: 2},
		LSQEntries:      32,
		StoreBufEntries: 12,
		MaxBranches:     20,
		BTBEntries:      512,
		BTBWays:         4,
		RASDepth:        16,
		BTBMissBubble:   2,
		RedirectPenalty: 2,
		ClockHz:         3_200_000_000,
		Hierarchy:       cache.DefaultHierarchyConfig(),
		TLB:             tlb.DefaultConfig(),
		Tage:            branch.DefaultTageConfig(),
		HandlerSeed:     0xfa117,
	}
}

// validate panics on nonsensical configurations.
func (c *Config) validate() {
	switch {
	case c.FetchWidth <= 0, c.FetchBufEntries <= 0, c.DispatchWidth <= 0,
		c.ROBEntries <= 0, c.CommitWidth <= 0, c.LSQEntries <= 0,
		c.StoreBufEntries <= 0, c.MaxBranches <= 0:
		panic("cpu: non-positive structure size in config")
	case c.CommitWidth > trace.MaxBanks:
		panic("cpu: commit width exceeds trace.MaxBanks")
	case c.ROBEntries%c.CommitWidth != 0:
		panic("cpu: ROB entries must be a multiple of the bank count")
	case c.IntIQ.Entries <= 0 || c.IntIQ.Width <= 0 ||
		c.MemIQ.Entries <= 0 || c.MemIQ.Width <= 0 ||
		c.FPIQ.Entries <= 0 || c.FPIQ.Width <= 0:
		panic("cpu: invalid issue queue config")
	}
}

// Stats aggregates a run's outcomes.
type Stats struct {
	// Cycles is total execution time in core cycles.
	Cycles uint64
	// Committed is the number of committed instructions.
	Committed uint64
	// Fetched counts fetched instruction instances (including replays).
	Fetched uint64
	// Mispredicts counts resolved branch/return mispredictions.
	Mispredicts uint64
	// CSRFlushes counts commit-time pipeline flushes from CSR writes.
	CSRFlushes uint64
	// Exceptions counts raised page-fault exceptions.
	Exceptions uint64
	// BTBBubbles counts front-end bubbles from BTB misses.
	BTBBubbles uint64
	// StoreStallCycles counts commit cycles blocked on a full store
	// buffer.
	StoreStallCycles uint64
	// PMUInterrupts counts injected sampling interrupts.
	PMUInterrupts uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
