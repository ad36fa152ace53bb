package cpu

import (
	"testing"

	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// TestStepSteadyStateZeroAllocs pins the hot loop's allocation behavior:
// once the ring buffers, issue queues, and scratch slices have grown to
// their steady-state capacity, stepping the core must not allocate at all.
// The workload is a long predictable ALU loop — flush-free, so the test
// isolates the per-cycle path (fetch/dispatch/issue/commit) rather than the
// flush path, whose replay buffer is exercised by the full-suite runs.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	p := independentALULoop(500_000)
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()

	var rec trace.Record
	cycle := uint64(0)
	// Warm up past cold-start growth: slice capacities, predictor tables,
	// and the fetch buffer all reach steady state well within this.
	for i := 0; i < 50_000; i++ {
		if done, _ := core.Step(cycle, &rec); done {
			t.Fatal("program finished during warmup; enlarge the loop")
		}
		cycle++
	}

	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 1_000; i++ {
			if done, _ := core.Step(cycle, &rec); done {
				t.Fatal("program finished during measurement; enlarge the loop")
			}
			cycle++
		}
	})
	if allocs != 0 {
		t.Fatalf("Core.Step allocated %.1f times per 1000 steady-state cycles; want 0", allocs)
	}
}

// TestFlushReplayBufferReuse drives a branchy workload through enough
// flushes that the ping-pong replay scratch in flushPipeline settles, then
// checks whole-run allocations stay far below one per flush.
func TestFlushReplayBufferReuse(t *testing.T) {
	stats, _ := runProgram(t, randomBranchProgram(4000), 7)
	if stats.Mispredicts < 100 {
		t.Skipf("workload only mispredicted %d times; flush path not exercised", stats.Mispredicts)
	}
	// Re-run the same program measuring allocations end to end. The run
	// includes cold-start growth, so the bound is loose — the regression
	// guarded against is one fresh replay slice per flush (>= one alloc
	// per mispredict).
	p := randomBranchProgram(4000)
	allocs := testing.AllocsPerRun(1, func() {
		cfg := DefaultConfig()
		core := New(cfg, p, program.NewInterp(p, 7))
		core.MMU().PrefaultAll()
		if _, err := core.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(stats.Mispredicts)/2 {
		t.Fatalf("full run allocated %.0f times against %d flushes; replay buffer is not being reused",
			allocs, stats.Mispredicts)
	}
}
