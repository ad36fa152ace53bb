package tip

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
)

func sysConfig() CoreConfig {
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 100_000_000
	return cfg
}

// runShared runs ws lockstep on sharedCores under cfg, core i feeding
// consumers[i] when consumers are given, and returns each core's stats and
// the shared LLC.
func runShared(t *testing.T, cfg CoreConfig, ws []*Workload, consumers ...trace.Consumer) ([]CoreStats, *cache.Cache) {
	t.Helper()
	cores, llc := sharedCores(cfg, ws)
	if consumers == nil {
		consumers = make([]trace.Consumer, len(ws))
	}
	if _, err := cpu.Lockstep(nil, cores, consumers); err != nil {
		t.Fatal(err)
	}
	stats := make([]CoreStats, len(cores))
	for i, c := range cores {
		stats[i] = c.Stats()
	}
	return stats, llc
}

func TestTwoCoresFinishIndependently(t *testing.T) {
	a, b := &trace.CountingConsumer{}, &trace.CountingConsumer{}
	stats, _ := runShared(t, sysConfig(), []*Workload{loadScaled(t, "exchange2", 60_000), loadScaled(t, "exchange2", 240_000)}, a, b)
	if !a.Finished || !b.Finished {
		t.Fatal("consumers not finished")
	}
	if stats[0].Cycles >= stats[1].Cycles {
		t.Fatalf("short workload (%d cycles) not shorter than long (%d)", stats[0].Cycles, stats[1].Cycles)
	}
	// A finished core's consumer stops receiving records.
	if a.Cycles != stats[0].Cycles && a.Cycles != stats[0].Cycles+1 {
		t.Fatalf("core 0 consumer saw %d records for %d cycles", a.Cycles, stats[0].Cycles)
	}
}

func TestSharedLLCContentionSlowsCoRunners(t *testing.T) {
	// mcf (DRAM-bound pointer chasing) co-running with a second workload
	// must be slower than running alone on the same shared-LLC system.
	solo, _ := runShared(t, sysConfig(), []*Workload{loadScaled(t, "mcf", 60_000)})
	pair, _ := runShared(t, sysConfig(), []*Workload{loadScaled(t, "mcf", 60_000), loadScaled(t, "omnetpp", 120_000)})
	if pair[0].Committed != solo[0].Committed {
		t.Fatalf("instruction counts differ: %d vs %d", pair[0].Committed, solo[0].Committed)
	}
	if pair[0].Cycles <= solo[0].Cycles {
		t.Fatalf("co-run mcf (%d cycles) not slower than solo (%d)", pair[0].Cycles, solo[0].Cycles)
	}
}

// TestPerCoreTIPStaysAccurateUnderContention: each core's TIP unit profiles
// its own workload accurately even while sharing the memory system.
func TestPerCoreTIPStaysAccurateUnderContention(t *testing.T) {
	ws := []*Workload{loadScaled(t, "imagick", 200_000), loadScaled(t, "lbm", 200_000)}
	var ors [2]*profiler.Oracle
	var tips, ncis [2]*profiler.Sampled
	consumers := make([]trace.Consumer, len(ws))
	for i, w := range ws {
		ors[i] = profiler.NewOracle(w.Prog, false)
		tips[i] = profiler.NewSampled(profiler.KindTIP, w.Prog, sampling.NewPeriodic(53))
		ncis[i] = profiler.NewSampled(profiler.KindNCI, w.Prog, sampling.NewPeriodic(53))
		consumers[i] = &trace.Tee{Consumers: []trace.Consumer{ors[i], tips[i], ncis[i]}}
	}
	runShared(t, sysConfig(), ws, consumers...)
	for i := range ws {
		e := tips[i].Profile.Error(ors[i].Profile, profile.GranInstruction, true)
		if e > 0.10 {
			t.Fatalf("core %d TIP error %.3f under contention", i, e)
		}
		if n := ncis[i].Profile.Error(ors[i].Profile, profile.GranInstruction, true); n < e {
			t.Fatalf("core %d: NCI %.3f beat TIP %.3f", i, n, e)
		}
		// Oracle accounts every cycle on both cores.
		if got, want := ors[i].Profile.Attributed(), ors[i].Profile.TotalCycles; got < want-1 || got > want+1 {
			t.Fatalf("core %d oracle attributed %v of %v", i, got, want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []CoreStats {
		stats, _ := runShared(t, sysConfig(), []*Workload{loadScaled(t, "x264", 80_000), loadScaled(t, "deepsjeng", 80_000)})
		return stats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core %d stats differ across identical runs", i)
		}
	}
}

func TestLLCSharedBetweenCores(t *testing.T) {
	_, llc := runShared(t, sysConfig(), []*Workload{loadScaled(t, "mcf", 40_000), loadScaled(t, "canneal", 40_000)})
	if total := llc.Hits + llc.Misses; llc.Misses == 0 || total < 1000 {
		t.Fatalf("shared LLC barely used: %d hits, %d misses", llc.Hits, llc.Misses)
	}
}

// TestRunMulticoreRejectsNoWorkloads checks that both policies refuse an
// empty machine before building anything.
func TestRunMulticoreRejectsNoWorkloads(t *testing.T) {
	for _, run := range []func(context.Context, []*Workload, RunConfig, ...*TraceCapture) (*MulticoreResult, error){RunMulticore, RunMulticoreStreaming} {
		if _, err := run(nil, nil, RunConfig{Core: sysConfig()}); err == nil || !strings.Contains(err.Error(), "0 workloads") {
			t.Fatalf("no workloads: err %v", err)
		}
	}
}

// TestRunMulticoreMaxCyclesAborts checks that a core running past MaxCycles
// fails the whole multicore run under both policies, with cpu's error text.
func TestRunMulticoreMaxCyclesAborts(t *testing.T) {
	for _, run := range []func(context.Context, []*Workload, RunConfig, ...*TraceCapture) (*MulticoreResult, error){RunMulticore, RunMulticoreStreaming} {
		cfg := sysConfig()
		cfg.MaxCycles = 100
		_, err := run(context.Background(), []*Workload{loadScaled(t, "x264", 500_000)}, RunConfig{Core: cfg})
		if err == nil || !strings.Contains(err.Error(), "exceeded MaxCycles=100") {
			t.Fatalf("MaxCycles=100: err %v", err)
		}
	}
}

// TestMaxCyclesBoundaryEveryRoute pins one MaxCycles contract on every loop
// that steps cores: a run that needs N cycles succeeds at MaxCycles=N, and at
// MaxCycles=N-1 it steps exactly N-1 cycles and fails with cpu's error text.
func TestMaxCyclesBoundaryEveryRoute(t *testing.T) {
	routes := []struct {
		name string
		// run returns the cycles stepped under maxCycles.
		run func(maxCycles uint64) (uint64, error)
	}{
		{"Core.Run", func(maxCycles uint64) (uint64, error) {
			cfg := sysConfig()
			cfg.MaxCycles = maxCycles
			cc := &trace.CountingConsumer{}
			_, err := newCore(cfg, loadScaled(t, "exchange2", 20_000)).Run(cc)
			return cc.Cycles, err
		}},
		{"2-core lockstep", func(maxCycles uint64) (uint64, error) {
			cfg := sysConfig()
			cfg.MaxCycles = maxCycles
			cores, _ := sharedCores(cfg, []*Workload{loadScaled(t, "exchange2", 20_000), loadScaled(t, "mcf", 20_000)})
			a, b := &trace.CountingConsumer{}, &trace.CountingConsumer{}
			_, err := cpu.Lockstep(nil, cores, []trace.Consumer{a, b})
			// Every lockstep cycle delivers a record to each live core's
			// consumer, so the slower core's count is the cycles stepped.
			return max(a.Cycles, b.Cycles), err
		}},
		{"sampled leg", func(maxCycles uint64) (uint64, error) {
			var rec trace.Record
			leg, err := runLeg(context.Background(), newCore(sysConfig(), loadScaled(t, "exchange2", 20_000)),
				&rec, 0, 0, 1<<40, maxCycles, func(*trace.Record, bool) {})
			return leg.winSteps, err
		}},
	}
	for _, r := range routes {
		steps, err := r.run(0)
		if err != nil {
			t.Fatalf("%s: unbounded: %v", r.name, err)
		}
		if got, err := r.run(steps); err != nil || got != steps {
			t.Fatalf("%s: MaxCycles=%d (exact) stepped %d, err %v", r.name, steps, got, err)
		}
		got, err := r.run(steps - 1)
		want := fmt.Sprintf("cpu: exceeded MaxCycles=%d (committed ", steps-1)
		if got != steps-1 || err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s: MaxCycles=%d stepped %d, err %v; want %d cycles and %q", r.name, steps-1, got, err, steps-1, want)
		}
	}
}
