package multicore

import (
	"testing"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

func load(t *testing.T, name string, scale uint64) *workload.Workload {
	t.Helper()
	w, err := workload.LoadScaled(name, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sysConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 100_000_000
	return cfg
}

func TestTwoCoresFinishIndependently(t *testing.T) {
	short := load(t, "exchange2", 60_000)
	long := load(t, "exchange2", 240_000)
	a, b := &trace.CountingConsumer{}, &trace.CountingConsumer{}
	sys := New(sysConfig(), []CoreSpec{
		{Workload: short, Consumers: []trace.Consumer{a}},
		{Workload: long, Consumers: []trace.Consumer{b}},
	})
	results, err := sys.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Finished || !b.Finished {
		t.Fatal("consumers not finished")
	}
	if results[0].Stats.Cycles >= results[1].Stats.Cycles {
		t.Fatalf("short workload (%d cycles) not shorter than long (%d)",
			results[0].Stats.Cycles, results[1].Stats.Cycles)
	}
	// A finished core's consumer stops receiving records.
	if a.Cycles != results[0].Stats.Cycles && a.Cycles != results[0].Stats.Cycles+1 {
		t.Fatalf("core 0 consumer saw %d records for %d cycles", a.Cycles, results[0].Stats.Cycles)
	}
}

func TestSharedLLCContentionSlowsCoRunners(t *testing.T) {
	// mcf (DRAM-bound pointer chasing) co-running with a second mcf must
	// be slower than running alone on the same shared-LLC system.
	solo := New(sysConfig(), []CoreSpec{
		{Workload: load(t, "mcf", 60_000)},
	})
	soloRes, err := solo.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	pair := New(sysConfig(), []CoreSpec{
		{Workload: load(t, "mcf", 60_000)},
		{Workload: load(t, "omnetpp", 120_000)},
	})
	pairRes, err := pair.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pairRes[0].Stats.Committed != soloRes[0].Stats.Committed {
		t.Fatalf("instruction counts differ: %d vs %d",
			pairRes[0].Stats.Committed, soloRes[0].Stats.Committed)
	}
	if pairRes[0].Stats.Cycles <= soloRes[0].Stats.Cycles {
		t.Fatalf("co-run mcf (%d cycles) not slower than solo (%d)",
			pairRes[0].Stats.Cycles, soloRes[0].Stats.Cycles)
	}
}

// TestPerCoreTIPStaysAccurateUnderContention: each core's TIP unit profiles
// its own workload accurately even while sharing the memory system.
func TestPerCoreTIPStaysAccurateUnderContention(t *testing.T) {
	mkConsumers := func(w *workload.Workload) (*profiler.Oracle, *profiler.Sampled, *profiler.Sampled, []trace.Consumer) {
		or := profiler.NewOracle(w.Prog, false)
		tip := profiler.NewSampled(profiler.KindTIP, w.Prog, sampling.NewPeriodic(53))
		nci := profiler.NewSampled(profiler.KindNCI, w.Prog, sampling.NewPeriodic(53))
		return or, tip, nci, []trace.Consumer{or, tip, nci}
	}
	w0 := load(t, "imagick", 200_000)
	w1 := load(t, "lbm", 200_000)
	or0, tip0, nci0, cons0 := mkConsumers(w0)
	or1, tip1, nci1, cons1 := mkConsumers(w1)
	sys := New(sysConfig(), []CoreSpec{
		{Workload: w0, Consumers: cons0},
		{Workload: w1, Consumers: cons1},
	})
	if _, err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	e0 := tip0.Profile.Error(or0.Profile, profile.GranInstruction, true)
	e1 := tip1.Profile.Error(or1.Profile, profile.GranInstruction, true)
	if e0 > 0.10 {
		t.Fatalf("core 0 TIP error %.3f under contention", e0)
	}
	if e1 > 0.10 {
		t.Fatalf("core 1 TIP error %.3f under contention", e1)
	}
	if n0 := nci0.Profile.Error(or0.Profile, profile.GranInstruction, true); n0 < e0 {
		t.Fatalf("core 0: NCI %.3f beat TIP %.3f", n0, e0)
	}
	if n1 := nci1.Profile.Error(or1.Profile, profile.GranInstruction, true); n1 < e1 {
		t.Fatalf("core 1: NCI %.3f beat TIP %.3f", n1, e1)
	}
	// Oracle accounts every cycle on both cores.
	if got, want := or0.Profile.Attributed(), or0.Profile.TotalCycles; got < want-1 || got > want+1 {
		t.Fatalf("core 0 oracle attributed %v of %v", got, want)
	}
	if got, want := or1.Profile.Attributed(), or1.Profile.TotalCycles; got < want-1 || got > want+1 {
		t.Fatalf("core 1 oracle attributed %v of %v", got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []CoreResult {
		sys := New(sysConfig(), []CoreSpec{
			{Workload: load(t, "x264", 80_000)},
			{Workload: load(t, "deepsjeng", 80_000)},
		})
		res, err := sys.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Stats != b[i].Stats {
			t.Fatalf("core %d stats differ across identical runs", i)
		}
	}
}

func TestLLCSharedBetweenCores(t *testing.T) {
	sys := New(sysConfig(), []CoreSpec{
		{Workload: load(t, "mcf", 40_000)},
		{Workload: load(t, "canneal", 40_000)},
	})
	if _, err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	if total := sys.LLC().Hits + sys.LLC().Misses; sys.LLC().Misses == 0 || total < 1000 {
		t.Fatalf("shared LLC barely used: %d hits, %d misses", sys.LLC().Hits, sys.LLC().Misses)
	}
}

func TestEmptySpecsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty system")
		}
	}()
	New(sysConfig(), nil)
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := sysConfig()
	cfg.MaxCycles = 100
	sys := New(cfg, []CoreSpec{{Workload: load(t, "x264", 500_000)}})
	if _, err := sys.Run(nil); err == nil {
		t.Fatal("expected MaxCycles error")
	}
}

// TestMaxCyclesBoundary pins the cap semantics to cpu.Core's: MaxCycles
// permits exactly MaxCycles lockstep cycles, so a run needing N cycles
// succeeds at MaxCycles=N and aborts at N-1.
func TestMaxCyclesBoundary(t *testing.T) {
	specs := func() []CoreSpec {
		return []CoreSpec{
			{Workload: load(t, "exchange2", 40_000)},
			{Workload: load(t, "exchange2", 80_000)},
		}
	}
	cfg := sysConfig()
	a, b := &trace.CountingConsumer{}, &trace.CountingConsumer{}
	unboundedSpecs := specs()
	unboundedSpecs[0].Consumers = []trace.Consumer{a}
	unboundedSpecs[1].Consumers = []trace.Consumer{b}
	if _, err := New(cfg, unboundedSpecs).Run(nil); err != nil {
		t.Fatal(err)
	}
	// Every lockstep cycle delivers a record to each live core's consumer,
	// so the slower core's record count is the cycles the run stepped.
	steps := a.Cycles
	if b.Cycles > steps {
		steps = b.Cycles
	}

	cfg.MaxCycles = steps
	if _, err := New(cfg, specs()).Run(nil); err != nil {
		t.Fatalf("MaxCycles=%d (exact) aborted: %v", steps, err)
	}
	cfg.MaxCycles = steps - 1
	if _, err := New(cfg, specs()).Run(nil); err == nil {
		t.Fatalf("MaxCycles=%d (one short) did not abort", steps-1)
	}
}

// recordSink copies every record it observes.
type recordSink struct {
	recs  []trace.Record
	total uint64
}

func (s *recordSink) OnCycle(r *trace.Record)   { s.recs = append(s.recs, *r) }
func (s *recordSink) Finish(totalCycles uint64) { s.total = totalCycles }

// repeatSink is a recordSink that takes runs: it expands each OnRepeat back
// into the records it stands for and counts the calls.
type repeatSink struct {
	recordSink
	repeats, repeated int
}

func (s *repeatSink) OnRepeat(r *trace.Record, n uint64) {
	s.repeats++
	s.repeated += int(n)
	for c := r.Cycle - n + 1; c <= r.Cycle; c++ {
		rec := *r
		rec.Cycle = c
		s.recs = append(s.recs, rec)
	}
}

// TestRunPassesRepeatsToRepeaters checks that each core hands its quiescent
// cycles to a consumer that takes runs as OnRepeat, a whole stall per call,
// and that the expanded stream and Finish total are exactly what a consumer
// taking every cycle through OnCycle sees on the same core.
func TestRunPassesRepeatsToRepeaters(t *testing.T) {
	var plain [2]recordSink
	var runs [2]repeatSink
	sys := New(sysConfig(), []CoreSpec{
		{Workload: load(t, "mcf", 40_000), Consumers: []trace.Consumer{&plain[0], &runs[0]}},
		{Workload: load(t, "exchange2", 40_000), Consumers: []trace.Consumer{&plain[1], &runs[1]}},
	})
	if _, err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if runs[i].total != plain[i].total || len(runs[i].recs) != len(plain[i].recs) {
			t.Fatalf("core %d: repeater saw %d records, total %d; plain consumer %d, total %d",
				i, len(runs[i].recs), runs[i].total, len(plain[i].recs), plain[i].total)
		}
		for j := range plain[i].recs {
			if runs[i].recs[j] != plain[i].recs[j] {
				t.Fatalf("core %d record %d differs between the repeater and the plain consumer", i, j)
			}
		}
	}
	if runs[0].repeats == 0 {
		t.Fatal("mcf's core delivered no quiescent cycle as OnRepeat")
	}
	if runs[0].repeated <= runs[0].repeats {
		t.Fatalf("mcf's core delivered %d quiescent cycles in %d OnRepeat calls; want its stalls as runs", runs[0].repeated, runs[0].repeats)
	}
}
