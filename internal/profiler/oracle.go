package profiler

import (
	"math"

	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// Oracle is the golden-reference profiler (§2.2): it attributes every clock
// cycle to the instruction(s) whose latency the processor exposes in that
// cycle, following the four commit-stage states of Fig. 3:
//
//	Computing: 1/n cycles to each of the n committing instructions.
//	Stalled:   the cycle goes to the instruction blocking the ROB head.
//	Flushed:   the cycle goes to the instruction that emptied the ROB
//	           (mispredicted branch, flushing CSR, or excepting
//	           instruction), identified via OIR flags.
//	Drained:   the cycle goes to the first instruction that enters the
//	           ROB after the front-end stall.
//
// Because it accounts every cycle and every dynamic instruction, it cannot
// be implemented in real hardware (it would generate ~179 GB/s, §3.2) — it
// exists to quantify the other profilers' systematic error, and to build
// the commit cycle stacks of Fig. 7.
type Oracle struct {
	prog *program.Program

	// Profile is the exact attributed-cycle profile.
	Profile *profile.Profile
	// Stack is the cycle-type breakdown (Fig. 7).
	Stack profile.CycleStack
	// Breakdown, when enabled, holds per-instruction per-category cycles
	// (used for the Fig. 12/13 per-function time breakdowns).
	Breakdown [][]float64

	// o is the OIR the Flushed/Drained split reads. A standalone Oracle
	// owns it and advances it every cycle; one attached to a Dispatcher
	// reads the dispatcher's CycleFacts OIR, advanced once per cycle for
	// every consumer (see Dispatcher.AddEveryCycle).
	o            *oir
	ownOIR       bool
	drainPending float64
	finished     bool
}

// NewOracle returns an Oracle profiler for prog. withBreakdown enables the
// per-instruction category matrix.
func NewOracle(prog *program.Program, withBreakdown bool) *Oracle {
	or := &Oracle{prog: prog, Profile: profile.New(prog), o: &oir{}, ownOIR: true}
	if withBreakdown {
		or.Breakdown = make([][]float64, prog.NumInsts())
		for i := range or.Breakdown {
			or.Breakdown[i] = make([]float64, profile.NumCategories)
		}
	}
	return or
}

func (or *Oracle) attr(idx int32, w float64, cat profile.Category) {
	or.Profile.Add(idx, w)
	or.Stack.Add(cat, w)
	if or.Breakdown != nil && idx >= 0 && int(idx) < len(or.Breakdown) {
		or.Breakdown[idx][cat] += w
	}
}

// OnCycle implements trace.Consumer.
func (or *Oracle) OnCycle(r *trace.Record) {
	if !r.ROBEmpty {
		oldest := r.Oldest()
		if or.drainPending > 0 && oldest != nil {
			// Drained cycles go to the first instruction that
			// entered the ROB after the stall.
			or.attr(oldest.InstIndex, or.drainPending, profile.CatFrontend)
			or.drainPending = 0
		}
		if r.CommitCount > 0 {
			w := 1.0 / float64(r.CommitCount)
			n, b := scanStart(r)
			for i := 0; i < n; i++ {
				e := &r.Banks[b]
				if e.Valid && e.Committing {
					or.attr(e.InstIndex, w, profile.CatExecution)
				}
				if b++; b == n {
					b = 0
				}
			}
		} else if oldest != nil {
			kind := or.prog.InstByIndex(int(oldest.InstIndex)).Kind
			or.attr(oldest.InstIndex, 1, profile.StallCategoryOf(kind))
		}
	} else {
		if or.o.flushed() {
			cat := profile.CatMiscFlush
			if or.o.mispredicted {
				cat = profile.CatMispredict
			}
			or.attr(or.o.instIndex, 1, cat)
		} else {
			or.drainPending++
		}
	}
	if or.ownOIR {
		or.o.observe(r)
	}
}

// OnRepeat implements trace.Repeater. A repeated record that commits nothing
// charges each of its n cycles to the same instruction in the same category
// (Stalled, Flushed) or adds them to the drain, so the run is booked in one
// step per accumulator; addOnes keeps every float bit of n unit adds. The
// OIR already holds what the record latches. A committing repeat, which
// neither a core nor a trace reader produces, is taken cycle by cycle.
func (or *Oracle) OnRepeat(r *trace.Record, n uint64) {
	if r.CommitCount > 0 {
		for ; n > 0; n-- {
			or.OnCycle(r)
		}
		return
	}
	if !r.ROBEmpty {
		// With no valid entry to charge, no cycle of the run is
		// attributed, as in OnCycle.
		if oldest := r.Oldest(); oldest != nil {
			if or.drainPending > 0 {
				or.attr(oldest.InstIndex, or.drainPending, profile.CatFrontend)
				or.drainPending = 0
			}
			kind := or.prog.InstByIndex(int(oldest.InstIndex)).Kind
			or.attrRun(oldest.InstIndex, n, profile.StallCategoryOf(kind))
		}
	} else if or.o.flushed() {
		cat := profile.CatMiscFlush
		if or.o.mispredicted {
			cat = profile.CatMispredict
		}
		or.attrRun(or.o.instIndex, n, cat)
	} else {
		or.drainPending = addOnes(or.drainPending, n)
	}
	if or.ownOIR {
		or.o.observe(r)
	}
}

// attrRun is attr of weight 1 repeated n times.
func (or *Oracle) attrRun(idx int32, n uint64, cat profile.Category) {
	if p := or.Profile; idx >= 0 && int(idx) < len(p.InstCycles) {
		p.InstCycles[idx] = addOnes(p.InstCycles[idx], n)
	}
	or.Stack.Cycles[cat] = addOnes(or.Stack.Cycles[cat], n)
	if or.Breakdown != nil && idx >= 0 && int(idx) < len(or.Breakdown) {
		or.Breakdown[idx][cat] = addOnes(or.Breakdown[idx][cat], n)
	}
}

// addOnes returns x after n additions of 1.0, bit for bit. One addition of n
// is exact while x is a non-negative integer-valued float and the sum stays
// below 2^53, where every integer is representable; otherwise each unit add
// may round, so they are made one at a time.
func addOnes(x float64, n uint64) float64 {
	if sum := x + float64(n); x >= 0 && x == math.Trunc(x) && sum < 1<<53 {
		return sum
	}
	for ; n > 0; n-- {
		x++
	}
	return x
}

// Finish implements trace.Consumer.
func (or *Oracle) Finish(totalCycles uint64) {
	if or.drainPending > 0 {
		// The run ended while draining (no further dispatch): charge
		// the cycles to the last known instruction so every cycle
		// stays accounted for.
		or.attr(or.o.instIndex, or.drainPending, profile.CatFrontend)
		or.drainPending = 0
	}
	or.Profile.TotalCycles = float64(totalCycles)
	or.Stack.Total = float64(totalCycles)
	or.finished = true
}

// FunctionStack aggregates the per-category breakdown over one function
// (requires withBreakdown). Used for Fig. 13.
func (or *Oracle) FunctionStack(fnName string) profile.CycleStack {
	var out profile.CycleStack
	if or.Breakdown == nil {
		return out
	}
	for _, f := range or.prog.Funcs {
		if f.Name != fnName {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				for c, v := range or.Breakdown[in.Index] {
					out.Cycles[c] += v
				}
			}
		}
	}
	for _, v := range out.Cycles {
		out.Total += v
	}
	return out
}
