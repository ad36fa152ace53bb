package profiler

import (
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
)

// CycleFacts are the per-cycle stream facts every sampled profiler needs but
// none should derive on its own: the OIR state (§3.1) and the identity of
// the last committed instruction (LCI state). A standalone Sampled owns a
// private copy and advances it every delivered cycle; a Dispatcher advances
// one shared copy exactly once per cycle for its whole sample-aware tier, so
// the bank scan behind YoungestCommitting happens once instead of once per
// profiler.
type CycleFacts struct {
	o oir
	// lastCommitted is the youngest instruction of the most recent
	// committing cycle.
	lastCommitted    int32
	lastCommittedSet bool
}

// observe advances the facts past r, whose youngest committing entry is yc
// (nil on cycles that commit nothing). Call it after the cycle's
// attribution decisions, like oir.observe: samplers must see the facts as of
// the previous cycle.
func (f *CycleFacts) observe(r *trace.Record, yc *trace.BankEntry) {
	if yc != nil {
		f.lastCommitted = yc.InstIndex
		f.lastCommittedSet = true
		f.o.latchCommit(yc)
	}
	if r.ExceptionRaised {
		f.o.latchException(r)
	}
}

// Dispatcher fans one trace stream out in two tiers. Every-cycle consumers
// (Oracle, invariant checkers, trace writers) see every record. The
// sample-aware tier is organised by what can make a sampled profiler act:
//
//   - A scheduled sample. Profilers whose schedules will produce the same
//     cycles (sampling.Same, with equal next and last sample cycles) form
//     one schedule group. A min-heap orders the groups by their next sample
//     cycle; on that cycle the group calls Next once and every member takes
//     its sample with the same weight.
//   - A resolving event. A profiler holding deferred samples waits on one of
//     two lists, chosen by its kind: commit waiters (Software, Dispatch,
//     NCI, NCI+ILP) are visited only on cycles that commit, and oldest
//     waiters (the TIP and TIP-ILP drain samples) only on cycles whose ROB
//     is not empty. YoungestCommitting is computed once per commit cycle and
//     shared by the waiters and the cycle facts.
//
// On most cycles the tier therefore costs one heap-top comparison plus, on a
// commit, one bank scan; its work grows with the number of distinct
// schedules and resolving events, not with the number of profilers.
//
// All attached Sampled profilers share the dispatcher's CycleFacts, updated
// once per cycle after delivery. Results are bit-identical to delivering
// every cycle to every consumer: pending samples resolve before a same-cycle
// sample, as in Sampled.OnCycle; skipped cycles are exactly the cycles on
// which Sampled.OnCycle would have taken no action for that profiler; and
// the shared facts take the same values a private copy would.
type Dispatcher struct {
	every   []trace.Consumer
	sampled []*Sampled
	// groups are the schedule groups in attach order; heap holds the ones
	// with a sample still to come.
	groups []*schedGroup
	heap   []*schedGroup
	// commitWait and oldestWait hold the profilers with pending samples,
	// by the event that can resolve them (Kind.resolvedBy).
	commitWait []*Sampled
	oldestWait []*Sampled
	facts      CycleFacts
	// faultables are the attached consumers that can report a mid-stream
	// failure; Err polls them so a sharded replay can abort early.
	faultables []trace.Faultable
	// scratch is the private copy a run is replayed on, cycle by cycle,
	// for the consumers that do not take runs.
	scratch trace.Record
}

// schedGroup is a set of sampled profilers that sample on the same cycles.
// The group keeps next and last itself and advances the first member's
// schedule; the members' own next and last, and the other members'
// schedules, stay as they were when attached.
type schedGroup struct {
	next    uint64 // next sample cycle
	last    uint64 // previous sample cycle + 1 (start of current window)
	sched   sampling.Schedule
	members []*Sampled
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher { return &Dispatcher{} }

// AddEveryCycle attaches a consumer that must see every record. An Oracle
// is switched onto the dispatcher's CycleFacts OIR, as AddSampled does for
// sampled profilers, so a commit cycle's bank scan serves both; attach it
// before streaming, like a sampled profiler.
func (d *Dispatcher) AddEveryCycle(c trace.Consumer) {
	if or, ok := c.(*Oracle); ok {
		or.o, or.ownOIR = &d.facts.o, false
	}
	d.every = append(d.every, c)
	if f, ok := c.(trace.Faultable); ok {
		d.faultables = append(d.faultables, f)
	}
}

// Err implements trace.Faultable: it reports the first mid-stream failure
// of any attached consumer that exposes one (a spilling capture, a trace
// writer, an invariant checker with violations on record). Sharded replay
// polls it between chunks to stop feeding a pipeline that already failed.
func (d *Dispatcher) Err() error {
	for _, f := range d.faultables {
		if err := f.Err(); err != nil {
			return err
		}
	}
	return nil
}

// AddSampled attaches a sampled profiler to the sample-aware tier, switching
// it onto the dispatcher's shared facts and into the schedule group it
// matches, or a new one. Attach before streaming: a profiler that already
// consumed records owns facts and pending samples the dispatcher would
// discard, and its schedule no longer advances once attached to a group
// led by another profiler.
func (d *Dispatcher) AddSampled(s *Sampled) {
	s.facts = &d.facts
	s.ownFacts = false
	d.sampled = append(d.sampled, s)
	for _, g := range d.groups {
		if g.next == s.next && g.last == s.last && sampling.Same(g.sched, s.sched) {
			g.members = append(g.members, s)
			return
		}
	}
	g := &schedGroup{next: s.next, last: s.last, sched: s.sched, members: []*Sampled{s}}
	d.groups = append(d.groups, g)
	d.push(g)
}

// OnCycle implements trace.Consumer.
func (d *Dispatcher) OnCycle(r *trace.Record) {
	for _, c := range d.every {
		c.OnCycle(r)
	}
	var yc *trace.BankEntry
	if r.CommitCount > 0 {
		yc = r.YoungestCommitting()
		if len(d.commitWait) > 0 {
			d.commitWait = settle(d.commitWait, r, yc)
		}
	}
	if !r.ROBEmpty && len(d.oldestWait) > 0 {
		d.oldestWait = settle(d.oldestWait, r, nil)
	}
	if len(d.heap) > 0 && d.heap[0].next <= r.Cycle {
		d.sampleDue(r, r.Cycle, r.Cycle)
	}
	d.facts.observe(r, yc)
}

// sampleDue takes, in cycle order, every scheduled sample at cycles start
// through end, all of which r describes: each group due then calls Next
// once per sample, and its members sample with the weight of the cycles
// since the group's last sample.
func (d *Dispatcher) sampleDue(r *trace.Record, start, end uint64) {
	for len(d.heap) > 0 && d.heap[0].next <= end {
		g := d.heap[0]
		if g.next < start {
			// The stream skipped the sample cycle: like a standalone
			// Sampled, the group never samples again.
			d.popTop()
			continue
		}
		c := g.next
		w := float64(c + 1 - g.last)
		g.last = c + 1
		g.next = g.sched.Next(c)
		for _, s := range g.members {
			had := len(s.pend) > 0
			s.sample(r, w)
			if !had && len(s.pend) > 0 {
				d.wait(s)
			}
		}
		if g.next <= c {
			// The schedule saturated: no future samples.
			d.popTop()
			continue
		}
		d.siftDown(0)
	}
}

// OnRepeat implements trace.Repeater. On a run of a record that commits
// nothing, no waiter can resolve: no commit event comes, and an oldest
// waiter either already failed to resolve on the same record or deferred
// on an empty-ROB one. So the run visits only the schedule groups whose
// next sample falls inside it, each at that sample's cycle (no sampler
// reads r.Cycle), advances the facts once (latching the same record again
// changes nothing) and hands the run to the every-cycle tier: in one call
// to each Repeater, cycle by cycle on a private copy to the others. A
// committing run is taken cycle by cycle.
func (d *Dispatcher) OnRepeat(r *trace.Record, n uint64) {
	if n == 0 {
		return
	}
	if r.CommitCount > 0 {
		d.scratch = *r
		for c := r.Cycle - n + 1; ; c++ {
			d.scratch.Cycle = c
			d.OnCycle(&d.scratch)
			if c == r.Cycle {
				return
			}
		}
	}
	for _, c := range d.every {
		trace.Repeat(c, r, n, &d.scratch)
	}
	d.sampleDue(r, r.Cycle-n+1, r.Cycle)
	d.facts.observe(r, nil)
}

// wait puts a profiler that just deferred a sample on its event's list.
func (d *Dispatcher) wait(s *Sampled) {
	if s.Kind.resolvedBy() == eventCommit {
		d.commitWait = append(d.commitWait, s)
	} else {
		d.oldestWait = append(d.oldestWait, s)
	}
}

// settle resolves every waiter against r, which carries their event, and
// returns the ones still pending, filtered in place. A Software or Dispatch
// waiter whose least pending target is past the youngest committing FID
// cannot resolve this cycle and is kept without a resolve call.
func settle(waiters []*Sampled, r *trace.Record, yc *trace.BankEntry) []*Sampled {
	keep := waiters[:0]
	for _, s := range waiters {
		if yc == nil || yc.FID >= s.minTarget {
			s.resolve(r, yc)
		}
		if len(s.pend) > 0 {
			keep = append(keep, s)
		}
	}
	return keep
}

// Finish implements trace.Consumer.
func (d *Dispatcher) Finish(totalCycles uint64) {
	for _, c := range d.every {
		c.Finish(totalCycles)
	}
	for _, s := range d.sampled {
		s.Finish(totalCycles)
	}
}

// --- minimal binary min-heap of schedule groups on next ---

func (d *Dispatcher) push(g *schedGroup) {
	d.heap = append(d.heap, g)
	i := len(d.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.heap[p].next <= d.heap[i].next {
			break
		}
		d.heap[p], d.heap[i] = d.heap[i], d.heap[p]
		i = p
	}
}

func (d *Dispatcher) popTop() {
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	if n > 0 {
		d.siftDown(0)
	}
}

func (d *Dispatcher) siftDown(i int) {
	n := len(d.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && d.heap[l].next < d.heap[m].next {
			m = l
		}
		if r < n && d.heap[r].next < d.heap[m].next {
			m = r
		}
		if m == i {
			return
		}
		d.heap[i], d.heap[m] = d.heap[m], d.heap[i]
		i = m
	}
}
