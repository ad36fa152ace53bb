package cpu

import (
	"context"
	"fmt"

	"github.com/tipprof/tip/internal/trace"
)

// pollMask gates a run's context polls to cycles c with c&pollMask == 0:
// a cancel lands within microseconds of wall-clock, invisible in the loop.
const pollMask = 8191

// Check returns the error that stops a run before it steps cycle, or nil.
// Every loop that steps cores obeys it. A non-zero maxCycles permits exactly
// maxCycles cycles (values 0..maxCycles-1); past them the error reports
// committed(), the instructions the run has committed. A non-nil ctx is
// polled every pollMask+1 cycles, and once it is done the error is
// AbortError's.
func Check(ctx context.Context, cycle, maxCycles uint64, committed func() uint64) error {
	if cycle&pollMask != 0 && (maxCycles == 0 || cycle < maxCycles) {
		return nil // the fast path, small enough to inline
	}
	return check(ctx, cycle, maxCycles, committed)
}

// check is Check's slow path.
func check(ctx context.Context, cycle, maxCycles uint64, committed func() uint64) error {
	if maxCycles > 0 && cycle >= maxCycles {
		return fmt.Errorf("cpu: exceeded MaxCycles=%d (committed %d)", maxCycles, committed())
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return AbortError(cycle, err)
		}
	}
	return nil
}

// AbortError is the error of a run that ctx stopped at cycle, wrapping
// ctx's err.
func AbortError(cycle uint64, err error) error {
	return fmt.Errorf("cpu: run aborted at cycle %d: %w", cycle, err)
}

// lane is one core of a lockstep run and the consumer its records go to.
type lane struct {
	core *Core
	c    trace.Consumer // nil drops the records
	rec  trace.Record
	// run counts the quiescent cycles not yet delivered: each repeats rec,
	// whose Cycle is the last of them.
	run        uint64
	lastCommit uint64
}

// flush delivers the held run as one trace.Repeat.
func (l *lane) flush(scratch *trace.Record) {
	if l.c != nil {
		trace.Repeat(l.c, &l.rec, l.run, scratch)
	}
	l.run = 0
}

// Lockstep runs cores on one clock until each has finished: it is the one
// loop that steps cores through a whole run (RunContext is its one-core
// case). Each cycle steps every unfinished core once, in order, and core
// i's records go to consumers[i] (nil drops them). A core's quiescent cycles
// are held, uncopied, and reach its consumer as one trace.Repeat just before
// the step that ends the stall. A core finishes on the step that drains it:
// its Stats.Cycles counts up to its last commit, and its consumer gets
// Finish with that count, so each consumer sees its core's stream as that
// core's TIP unit would (§3.2). Check stops the run under the smallest
// non-zero MaxCycles of the cores; every held run is then delivered, no
// unfinished core's consumer gets Finish (a partly fed capture must be
// Closed by the caller), and the error comes back with flags saying which
// cores finished.
func Lockstep(ctx context.Context, cores []*Core, consumers []trace.Consumer) ([]bool, error) {
	runsStarted.Add(1)
	lanes := make([]lane, len(cores))
	active := make([]int, len(cores)) // the unfinished lanes, in core order
	finished := make([]bool, len(cores))
	var maxCycles uint64
	for i, c := range cores {
		lanes[i], active[i] = lane{core: c, c: consumers[i]}, i
		if m := c.cfg.MaxCycles; m > 0 && (maxCycles == 0 || m < maxCycles) {
			maxCycles = m
		}
	}
	committed := func() (n uint64) {
		for i := range lanes {
			n += lanes[i].core.stats.Committed
		}
		return n
	}
	var scratch trace.Record
	var err error
	for cycle := uint64(0); len(active) > 0; cycle++ {
		if err = Check(ctx, cycle, maxCycles, committed); err != nil {
			for _, i := range active {
				if lanes[i].run > 0 {
					lanes[i].flush(&scratch)
				}
			}
			break
		}
		for a := 0; a < len(active); {
			l := &lanes[active[a]]
			c := l.core
			if c.skips(cycle, &l.rec) {
				// A skipped cycle changes nothing, so it cannot drain the
				// core: the full step before it would have.
				c.skip(cycle, &l.rec)
				l.run++
				a++
				continue
			}
			if l.run > 0 {
				l.flush(&scratch)
			}
			done := c.step(cycle, &l.rec)
			if l.c != nil {
				l.c.OnCycle(&l.rec)
			}
			if l.rec.CommitCount > 0 {
				l.lastCommit = cycle
			}
			if !done {
				a++
				continue
			}
			c.stats.Cycles = l.lastCommit + 1
			if l.c != nil {
				l.c.Finish(c.stats.Cycles)
			}
			finished[active[a]] = true
			active = append(active[:a], active[a+1:]...)
		}
	}
	return finished, err
}
