package cpu

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// checkIssueQueues checks the issue queues' wakeup state after c's last step.
// Every in-flight unissued slot is queued exactly one way:
//   - pinned, and then in its class's queue (in age order) or woken list
//     exactly once, with iqReady equal to the max doneCycle of its
//     still-matching producers (a producer that retired since the pin has
//     dropped out of that max, which only happens once the ready time has
//     been reached); or
//   - unknown, and then linked exactly once, on the list of an unissued,
//     still-matching producer.
//
// Every list member is such a waiting slot, no list is reachable from an
// empty or issued slot, iqCount[class] counts the class's queued slots, and
// iqMinReady[class] is at most every pinned entry's next possible issue
// cycle (its ready time, or the next cycle once that has passed).
func checkIssueQueues(t testing.TB, c *Core) {
	t.Helper()
	cycle := c.quietCycle
	n := c.robEntries
	inFlight := make([]bool, n)
	for i, s := 0, c.robHead; i < c.robCount; i++ {
		inFlight[s] = true
		if s++; s == n {
			s = 0
		}
	}
	queued := make([]int, n)
	pinned := func(class int, en iqEntry) {
		s := en.idx
		e := &c.rob[s]
		if !inFlight[s] || e.issued || int(e.mi.class) != class || e.mi.kind != en.kind {
			t.Fatalf("cycle %d: slot %d queued in class %d: in flight %v, issued %v, class %d, kind %v/%v",
				cycle, s, class, inFlight[s], e.issued, e.mi.class, e.mi.kind, en.kind)
		}
		queued[s]++
		want := uint64(0)
		for _, d := range e.deps[:e.ndeps] {
			if p := &c.rob[d.robIdx]; p.uop == d.uop {
				if !p.issued {
					t.Fatalf("cycle %d: slot %d queued with producer slot %d unissued", cycle, s, d.robIdx)
				}
				want = max(want, p.doneCycle)
			}
		}
		switch ready := c.iqReady[s]; {
		case ready != want && (ready > cycle || want > ready):
			t.Fatalf("cycle %d: slot %d pinned at %d, producers done at %d", cycle, s, ready, want)
		case max(ready, cycle+1) < c.iqMinReady[class]:
			t.Fatalf("cycle %d: class %d iqMinReady %d above slot %d's ready time %d",
				cycle, class, c.iqMinReady[class], s, ready)
		}
	}
	for class := range c.iqs {
		for i, en := range c.iqs[class] {
			pinned(class, en)
			if i > 0 && c.age(c.iqs[class][i-1].idx) >= c.age(en.idx) {
				t.Fatalf("cycle %d: class %d queue out of age order at %d", cycle, class, i)
			}
		}
		for _, en := range c.iqWoken[class] {
			pinned(class, en)
		}
	}
	links := make([]int, n)
	for p := range c.waitHead {
		if c.waitHead[p] < 0 {
			continue
		}
		if !inFlight[p] || c.rob[p].issued {
			t.Fatalf("cycle %d: slot %d (in flight %v, issued %v) has a wakeup list", cycle, p, inFlight[p], c.rob[p].issued)
		}
		length := 0
		for s := c.waitHead[p]; s >= 0; s = c.waitNext[s] {
			if length++; length > n {
				t.Fatalf("cycle %d: slot %d's wakeup list does not end", cycle, p)
			}
			if !inFlight[s] || c.rob[s].issued || c.iqReady[s] != iqReadyUnknown || !waitsOn(c, s, int32(p)) {
				t.Fatalf("cycle %d: slot %d on slot %d's list: in flight %v, issued %v, ready %d, depends %v",
					cycle, s, p, inFlight[s], c.rob[s].issued, c.iqReady[s], waitsOn(c, s, int32(p)))
			}
			links[s]++
		}
	}
	var count [isa.NumIssueClasses]int
	for s := range inFlight {
		if !inFlight[s] || c.rob[s].issued {
			continue
		}
		count[c.rob[s].mi.class]++
		waiting := c.iqReady[s] == iqReadyUnknown
		if waiting && (queued[s] != 0 || links[s] != 1) || !waiting && (queued[s] != 1 || links[s] != 0) {
			t.Fatalf("cycle %d: slot %d (waiting %v) is queued %d times and on %d lists", cycle, s, waiting, queued[s], links[s])
		}
	}
	if count != c.iqCount {
		t.Fatalf("cycle %d: iqCount %v, %v unissued slots in flight", cycle, c.iqCount, count)
	}
}

// waitsOn reports whether slot s has a still-matching dependence on slot p.
func waitsOn(c *Core, s, p int32) bool {
	e := &c.rob[s]
	for _, d := range e.deps[:e.ndeps] {
		if d.robIdx == p && d.uop == c.rob[p].uop {
			return true
		}
	}
	return false
}

// anyWaiting reports whether some slot is on a wakeup list.
func anyWaiting(c *Core) bool {
	for _, h := range c.waitHead {
		if h >= 0 {
			return true
		}
	}
	return false
}

// runChecked runs c to the end in stepRun with checkIssueQueues after every
// cycle and returns the number of cycles that ended with a waiting slot.
func runChecked(t *testing.T, name string, c *Core) int {
	t.Helper()
	waiting := 0
	_, err := stepRun(c, nil, func() {
		checkIssueQueues(t, c)
		if anyWaiting(c) {
			waiting++
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return waiting
}

// TestIssueQueueInvariantsRandomPrograms checks the wakeup state after every
// cycle of the TestFuzzRandomPrograms seeds, half of them demand paging
// (which flushes on exceptions).
func TestIssueQueueInvariantsRandomPrograms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000_000
	n := 60
	if testing.Short() {
		n = 12
	}
	waiting, exceptions := 0, uint64(0)
	for seed := uint64(1); seed <= uint64(n); seed++ {
		p := randomProgram(seed)
		c := New(cfg, p, &program.CappedStream{S: program.NewInterp(p, seed), Max: 30_000})
		if seed%2 == 0 {
			c.MMU().PrefaultAll()
		}
		waiting += runChecked(t, fmt.Sprintf("random/%d", seed), c)
		exceptions += c.Stats().Exceptions
	}
	if waiting == 0 || exceptions == 0 {
		t.Fatalf("%d cycles ended with a waiting slot, %d exceptions: both must occur", waiting, exceptions)
	}
}

// TestIssueQueueInvariantsBenchmarks checks the wakeup state after every
// cycle of every benchmark at scale 20 000, seed 1.
func TestIssueQueueInvariantsBenchmarks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000_000
	for _, name := range workload.Names() {
		if runChecked(t, name, benchmarkCore(t, cfg, name, 1)()) == 0 {
			t.Fatalf("%s: no slot ever waited on a producer", name)
		}
	}
}

// stepChecked steps c over cycles [from, to) with checkIssueQueues after
// each; it stops early, at the first cycle ending with a waiting slot, when
// untilWaiting is set, and returns the next cycle.
func stepChecked(t *testing.T, c *Core, from, to uint64, untilWaiting bool) uint64 {
	t.Helper()
	var rec trace.Record
	for cycle := from; cycle < to; cycle++ {
		if done, _ := c.Step(cycle, &rec); done {
			t.Fatalf("program finished at cycle %d", cycle)
		}
		checkIssueQueues(t, c)
		if untilWaiting && anyWaiting(c) {
			return cycle + 1
		}
	}
	if untilWaiting {
		t.Fatalf("no slot waited in cycles [%d, %d)", from, to)
	}
	return to
}

// TestIssueQueueInvariantsAcrossCheckpoints stops a detailed core while a
// slot waits on a producer and checks that ArchCheckpoint, then
// FastForward and ResumeFrom, and separately Restore, leave no stale
// wakeup list behind.
func TestIssueQueueInvariantsAcrossCheckpoints(t *testing.T) {
	p := loadProgram(256<<10, program.MemStride, 120_000)
	ff := program.NewFastForward(p)

	c := New(DefaultConfig(), p, program.NewInterp(p, 7))
	c.MMU().PrefaultAll()
	cycle := stepChecked(t, c, 0, 10_000, true)
	c.ArchCheckpoint(cycle)
	if anyWaiting(c) {
		t.Fatal("ArchCheckpoint left a wakeup list")
	}
	if _, done := c.FastForward(ff, 20_000); done {
		t.Fatal("program finished during fast-forward")
	}
	c.ResumeFrom(cycle)
	cycle = stepChecked(t, c, cycle, cycle+10_000, true)
	stepChecked(t, c, cycle, cycle+4096, false)

	sweepInterp := program.NewInterp(p, 7)
	sweep := New(DefaultConfig(), p, sweepInterp)
	sweep.MMU().PrefaultAll()
	sweep.ArchCheckpoint(0)
	if _, done := sweep.FastForward(program.NewFastForward(p), 30_000); done {
		t.Fatal("program finished during fast-forward")
	}
	var cp Checkpoint
	sweep.CheckpointInto(&cp)

	worker := New(DefaultConfig(), p, program.NewInterp(p, 7))
	worker.MMU().PrefaultAll()
	stepChecked(t, worker, 0, 10_000, true)
	worker.Restore(&cp, sweepInterp.Clone(), 1)
	if anyWaiting(worker) {
		t.Fatal("Restore left a wakeup list")
	}
	cycle = stepChecked(t, worker, 0, 10_000, true)
	stepChecked(t, worker, cycle, cycle+4096, false)
}

// FuzzRandomProgram runs a random program of up to 30 000 instructions with
// and without quiescent-cycle skipping, checking the issue queues' wakeup
// state after every cycle of the skipping run.
func FuzzRandomProgram(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := DefaultConfig()
		cfg.MaxCycles = 20_000_000
		p := randomProgram(seed)
		build := func() *Core {
			c := New(cfg, p, &program.CappedStream{S: program.NewInterp(p, seed), Max: 30_000})
			if seed%2 == 0 {
				c.MMU().PrefaultAll()
			}
			return c
		}
		checkedQuietPair(t, fmt.Sprintf("random/%d", seed), build, nil, true)
	})
}

// TestIQEntryIsSmall pins the issue-queue entry at eight bytes: readiness
// lives in Core.iqReady, not in the entry the scan moves.
func TestIQEntryIsSmall(t *testing.T) {
	if got := unsafe.Sizeof(iqEntry{}); got != 8 {
		t.Fatalf("iqEntry is %d bytes, want 8", got)
	}
}
