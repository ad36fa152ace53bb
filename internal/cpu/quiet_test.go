package cpu

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// recorder keeps a copy of every record it is given.
type recorder struct {
	recs  []trace.Record
	total uint64
}

func (r *recorder) OnCycle(rec *trace.Record) { r.recs = append(r.recs, *rec) }
func (r *recorder) Finish(total uint64)       { r.total = total }

// repeatRecorder is a recorder that also takes repeats, checking the
// trace.Repeater contract: the record is the one delivered last, n cycles
// later and otherwise unchanged. It counts the repeated cycles and the
// longest run delivered in one call.
type repeatRecorder struct {
	recorder
	t       *testing.T
	last    *trace.Record
	repeats int
	longest uint64
}

func (r *repeatRecorder) OnCycle(rec *trace.Record) {
	r.last = rec
	r.recorder.OnCycle(rec)
}

func (r *repeatRecorder) OnRepeat(rec *trace.Record, n uint64) {
	prev := r.recs[len(r.recs)-1]
	prev.Cycle += n
	if n == 0 || rec != r.last || *rec != prev {
		r.t.Fatalf("cycle %d: OnRepeat does not repeat the last record %d cycles later", rec.Cycle, n)
	}
	r.repeats += int(n)
	r.longest = max(r.longest, n)
	for c := rec.Cycle - n + 1; c <= rec.Cycle; c++ {
		at := *rec
		at.Cycle = c
		r.recorder.OnCycle(&at)
	}
}

// stepRun runs c to the end in a test-local Step loop, bounded as Lockstep
// bounds a run with no context, feeding consumer every cycle through
// OnCycle or, for a skipped cycle, OnRepeat(rec, 1) when consumer takes
// runs, and calling after once each cycle is stepped, so after sees the
// core as it stands between two cycles.
func stepRun(c *Core, consumer trace.Consumer, after func()) (Stats, error) {
	rep, _ := consumer.(trace.Repeater)
	committed := func() uint64 { return c.stats.Committed }
	var rec trace.Record
	last := uint64(0)
	for cycle := uint64(0); ; cycle++ {
		if err := Check(nil, cycle, c.cfg.MaxCycles, committed); err != nil {
			return c.stats, err
		}
		done, repeat := c.Step(cycle, &rec)
		if repeat && rep != nil {
			rep.OnRepeat(&rec, 1)
		} else if consumer != nil {
			consumer.OnCycle(&rec)
		}
		if rec.CommitCount > 0 {
			last = cycle
		}
		after()
		if done {
			c.stats.Cycles = last + 1
			if consumer != nil {
				consumer.Finish(c.stats.Cycles)
			}
			return c.stats, nil
		}
	}
}

// quietPair runs build's core twice, once skipping quiescent cycles and once
// stepping every cycle, and requires identical records, Finish totals,
// stats and errors. It returns the number of repeated cycles.
func quietPair(t *testing.T, name string, build func() *Core, ctx func() context.Context) int {
	t.Helper()
	return checkedQuietPair(t, name, build, ctx, false)
}

// checkedQuietPair is quietPair that, when check is set, runs the skipping
// core in stepRun with checkIssueQueues after every cycle instead of through
// RunContext.
func checkedQuietPair(t *testing.T, name string, build func() *Core, ctx func() context.Context, check bool) int {
	t.Helper()
	skip := &repeatRecorder{t: t}
	ref := &recorder{}
	a, b := build(), build()
	b.perCycle = true
	var ca, cb context.Context
	if ctx != nil {
		ca, cb = ctx(), ctx()
	}
	var sa Stats
	var ea error
	if check {
		sa, ea = stepRun(a, skip, func() { checkIssueQueues(t, a) })
	} else {
		sa, ea = a.RunContext(ca, skip)
	}
	sb, eb := b.RunContext(cb, ref)
	if fmt.Sprint(ea) != fmt.Sprint(eb) {
		t.Fatalf("%s: error %v, per-cycle %v", name, ea, eb)
	}
	if sa != sb {
		t.Fatalf("%s: stats %+v, per-cycle %+v", name, sa, sb)
	}
	if len(skip.recs) != len(ref.recs) || skip.total != ref.total {
		t.Fatalf("%s: %d records (total %d), per-cycle %d (total %d)",
			name, len(skip.recs), skip.total, len(ref.recs), ref.total)
	}
	for i := range ref.recs {
		if skip.recs[i] != ref.recs[i] {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", name, i, skip.recs[i], ref.recs[i])
		}
	}
	return skip.repeats
}

// benchmarkCore builds a prefaulted core over a small-scale suite benchmark,
// as the tip package does.
func benchmarkCore(t *testing.T, cfg Config, name string, seed uint64) func() *Core {
	w, err := workload.LoadScaled(name, seed, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return func() *Core {
		c := New(cfg, w.Prog, w.Stream())
		for _, reg := range w.Prefault {
			c.MMU().PrefaultRange(reg.Base, reg.Size)
		}
		return c
	}
}

// TestQuietSkipMatchesPerCycleStepping runs every benchmark at small scale,
// seeds 1 and 2, and the random programs of TestFuzzRandomPrograms with and
// without the quiescent-cycle horizon: records, stats and totals must be
// identical, and the skip must actually happen.
func TestQuietSkipMatchesPerCycleStepping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000_000
	repeats := 0
	for seed := uint64(1); seed <= 2; seed++ {
		for _, name := range workload.Names() {
			build := benchmarkCore(t, cfg, name, seed)
			repeats += quietPair(t, fmt.Sprintf("%s/seed%d", name, seed), build, nil)
		}
	}
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		p := randomProgram(seed)
		build := func() *Core {
			c := New(cfg, p, &program.CappedStream{S: program.NewInterp(p, seed), Max: 30_000})
			if seed%2 == 0 {
				c.MMU().PrefaultAll()
			}
			return c
		}
		repeats += quietPair(t, fmt.Sprintf("random/%d", seed), build, nil)
	}
	if repeats == 0 {
		t.Fatal("no cycle was skipped")
	}
}

// TestQuietSkipStoreBufferStall covers a stretch whose skipped cycles each
// add a store-stall cycle.
func TestQuietSkipStoreBufferStall(t *testing.T) {
	b := program.NewBuilder("stores")
	f := b.Func("main")
	b0 := f.NewBlock()
	mb := program.MemBehavior{Base: 1 << 30, Size: 64 << 20, Pattern: program.MemRandom}
	for i := 0; i < 4; i++ {
		b0.Store(isa.IntReg(1), isa.IntReg(2), mb)
	}
	b0.LoopBack(0, 500)
	f.NewBlock().Ret()
	p := b.MustBuild(0)
	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	build := func() *Core {
		c := New(cfg, p, program.NewInterp(p, 1))
		c.MMU().PrefaultAll()
		return c
	}
	if quietPair(t, "stores", build, nil) == 0 {
		t.Fatal("no cycle was skipped")
	}
	if st, _ := build().Run(nil); st.StoreStallCycles == 0 {
		t.Fatal("the store stream never stalled the store buffer")
	}
}

// TestQuietSkipPMUSampling covers PMU interrupts, which end a quiet stretch
// on the sample cycle.
func TestQuietSkipPMUSampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000_000
	cfg.SampleInterruptEvery = 997
	for _, name := range []string{"mcf", "omnetpp", "x264"} {
		build := benchmarkCore(t, cfg, name, 1)
		if quietPair(t, name, build, nil) == 0 {
			t.Fatalf("%s: no cycle was skipped", name)
		}
		if st, _ := build().Run(nil); st.PMUInterrupts == 0 {
			t.Fatalf("%s: no PMU interrupt", name)
		}
	}
}

// firstRepeat returns a cycle that a run of build skips, with at least one
// more skipped cycle after it.
func firstRepeat(t *testing.T, build func() *Core) uint64 {
	t.Helper()
	c := build()
	var rec trace.Record
	run := 0
	for cycle := uint64(0); ; cycle++ {
		done, repeat := c.Step(cycle, &rec)
		if repeat {
			if run++; run == 2 {
				return cycle - 1
			}
		} else {
			run = 0
		}
		if done {
			t.Fatal("no two consecutive skipped cycles")
		}
	}
}

// TestQuietSkipMaxCyclesInsideQuietStretch stops a run with MaxCycles on a
// cycle the horizon would skip: the error, the stats and the records up to
// it must be those of per-cycle stepping.
func TestQuietSkipMaxCyclesInsideQuietStretch(t *testing.T) {
	cfg := DefaultConfig()
	stall := firstRepeat(t, benchmarkCore(t, cfg, "mcf", 1))
	for _, max := range []uint64{stall, stall + 1} {
		cfg.MaxCycles = max
		quietPair(t, fmt.Sprintf("MaxCycles=%d", max), benchmarkCore(t, cfg, "mcf", 1), nil)
	}
}

// pollCtx counts Err calls and reports cancellation from the n-th on.
type pollCtx struct {
	context.Context
	polls, n int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestQuietSkipCancellationPolls cancels a run at its third context poll:
// both runs must poll the same number of times and stop at the same cycle
// with the same records.
func TestQuietSkipCancellationPolls(t *testing.T) {
	cfg := DefaultConfig()
	var ctxs []*pollCtx
	ctx := func() context.Context {
		c := &pollCtx{Context: context.Background(), n: 3}
		ctxs = append(ctxs, c)
		return c
	}
	quietPair(t, "cancel", benchmarkCore(t, cfg, "omnetpp", 1), ctx)
	if ctxs[0].polls != ctxs[1].polls {
		t.Fatalf("polled %d times, per-cycle %d", ctxs[0].polls, ctxs[1].polls)
	}
	_, err := benchmarkCore(t, cfg, "omnetpp", 1)().RunContext(ctx(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run was not cancelled: %v", err)
	}
}

// TestQuietSkipNeedsSameRecordAndNextCycle checks that a quiescent horizon
// is only used by a caller that passes the same record at the next cycle:
// another record, or a skipped cycle number, gets a full step that matches
// per-cycle stepping.
func TestQuietSkipNeedsSameRecordAndNextCycle(t *testing.T) {
	cfg := DefaultConfig()
	build := benchmarkCore(t, cfg, "mcf", 1)
	stall := firstRepeat(t, build)
	a, b := build(), build()
	b.perCycle = true
	var ra, rb trace.Record
	for cycle := uint64(0); cycle < stall; cycle++ {
		a.Step(cycle, &ra)
		b.Step(cycle, &rb)
	}
	// a would skip cycle stall with ra; it must not with another record.
	var other trace.Record
	if _, repeat := a.Step(stall, &other); repeat {
		t.Fatal("a different record took the skip")
	}
	b.Step(stall, &rb)
	if other != rb {
		t.Fatalf("full step with another record:\n got %+v\nwant %+v", other, rb)
	}
	// Back on ra, two cycles on: the horizon set by the step above is
	// only valid for other at stall+1.
	if _, repeat := a.Step(stall+2, &ra); repeat {
		t.Fatal("a skipped cycle number took the skip")
	}
	b.Step(stall+2, &rb)
	if ra != rb || a.Stats() != b.Stats() {
		t.Fatalf("full step after a skipped cycle number:\n got %+v\nwant %+v", ra, rb)
	}
}
