// Package check implements an opt-in, cycle-level invariant checker for the
// commit-stage trace stream, plus end-of-run conservation audits over the
// profilers that consumed it.
//
// Every number the evaluation reports rests on the commit-stage trace being
// internally consistent and deterministic — the property FireSim gives the
// paper for free and a software model must actively defend. The profilers
// (internal/profiler) lean on structural guarantees the core (internal/cpu)
// is supposed to provide: contiguous cycle numbers, a fixed bank count,
// commit counts that match the per-bank flags, at most one flush/exception
// cause per cycle, fetch-ordered FIDs, and a bounded in-flight window.
// Nothing else enforces them; a silent model bug would skew every
// attribution study built on top. The checker asserts them on every cycle
// and, when the run finishes, audits conservation: the Oracle attributes
// every cycle exactly once (its cycle stack partitions the run into the
// paper's Computing/Stalled/Flushed/Drained states, §2–3), and each sampled
// profiler's attributed-plus-lost mass equals the weight of the samples it
// took.
//
// The checker is a plain trace.Consumer, so it runs against a live core and
// against replayed golden traces alike. It deliberately re-implements the
// cycle-state classification instead of importing the Oracle's: the two
// independent derivations cross-check each other.
package check

import (
	"fmt"
	"math"
	"strings"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/trace"
)

// state indexes the checker's independent cycle-state tally.
type state int

const (
	stateComputing state = iota
	stateStalled
	stateFlushed
	stateDrained
	numStates
)

var stateNames = [numStates]string{"Computing", "Stalled", "Flushed", "Drained"}

// maxStoredViolations caps the stored per-cycle violations; Count keeps
// incrementing past the cap.
const maxStoredViolations = 16

// Violation is one invariant failure.
type Violation struct {
	// Benchmark is the workload the trace came from.
	Benchmark string
	// Cycle is the cycle of the offending record (the final cycle count
	// for end-of-run audit violations).
	Cycle uint64
	// Invariant names the violated property.
	Invariant string
	// Detail explains the failure.
	Detail string
	// Record is a compact dump of the offending record (empty for
	// end-of-run audits).
	Record string
}

// String renders the violation as a one-line report.
func (v Violation) String() string {
	s := fmt.Sprintf("%s: cycle %d: %s: %s", v.Benchmark, v.Cycle, v.Invariant, v.Detail)
	if v.Record != "" {
		s += " [" + v.Record + "]"
	}
	return s
}

// oirState replicates TIP's Offending Instruction Register flags (§3.1) so
// the checker can classify empty-ROB cycles as Flushed versus Drained
// independently of the profilers.
type oirState struct {
	valid        bool
	mispredicted bool
	flush        bool
	exception    bool
}

func (o *oirState) observe(r *trace.Record) {
	if y := r.YoungestCommitting(); y != nil {
		o.valid = true
		o.mispredicted = y.Mispredicted
		o.flush = y.Flush
		o.exception = false
	}
	if r.ExceptionRaised {
		o.valid = true
		o.mispredicted = false
		o.flush = false
		o.exception = true
	}
}

func (o *oirState) flushed() bool {
	return o.valid && (o.mispredicted || o.flush || o.exception)
}

type auditedOracle struct {
	name string
	o    *profiler.Oracle
}

type auditedSampled struct {
	name string
	s    *profiler.Sampled
}

// Checker verifies per-cycle trace invariants and end-of-run conservation.
// Attach it to the consumer list of a run (or a replay); audits may be
// registered before or after the run — they are evaluated lazily by Err,
// Violations, and Report.
type Checker struct {
	// benchmark labels violations (the workload under test).
	benchmark string
	// commitWidth is the expected record bank count; robEntries plus
	// fetchBufEntries bound the in-flight FID window.
	commitWidth, robEntries, fetchBufEntries int

	stored []Violation
	count  uint64

	started       bool
	prevCycle     uint64
	records       uint64
	anyCommit     bool
	lastCommit    uint64 // cycle of the most recent committing record
	lastCommitFID uint64
	haveCommitFID bool
	oir           oirState
	stateCycles   [numStates]uint64

	finished    bool
	totalCycles uint64

	oracles  []auditedOracle
	sampleds []auditedSampled
}

// New returns a checker for benchmark's trace as produced by a core of
// configuration core, whose commit width and ROB and fetch-buffer sizes
// the structural checks take.
func New(benchmark string, core cpu.Config) *Checker {
	if benchmark == "" {
		benchmark = "?"
	}
	return &Checker{
		benchmark:       benchmark,
		commitWidth:     core.CommitWidth,
		robEntries:      core.ROBEntries,
		fetchBufEntries: core.FetchBufEntries,
	}
}

// AuditOracle registers an Oracle for the end-of-run conservation audit:
// attributed cycles must equal total cycles, the cycle stack must partition
// the run, and its per-category totals must match the checker's independent
// state tally.
func (c *Checker) AuditOracle(name string, o *profiler.Oracle) {
	c.oracles = append(c.oracles, auditedOracle{name: name, o: o})
}

// AuditSampled registers a sampled profiler for the end-of-run conservation
// audit: attributed plus lost weight must equal the total sampled weight.
func (c *Checker) AuditSampled(name string, s *profiler.Sampled) {
	c.sampleds = append(c.sampleds, auditedSampled{name: name, s: s})
}

func (c *Checker) report(r *trace.Record, invariant, format string, args ...any) {
	c.count++
	if len(c.stored) >= maxStoredViolations {
		return
	}
	v := Violation{
		Benchmark: c.benchmark,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	}
	if r != nil {
		v.Cycle = r.Cycle
		v.Record = DumpRecord(r)
	} else {
		v.Cycle = c.totalCycles
	}
	c.stored = append(c.stored, v)
}

// OnCycle implements trace.Consumer.
func (c *Checker) OnCycle(r *trace.Record) {
	c.records++

	// Cycle numbers are contiguous from zero: the sampled profilers match
	// r.Cycle against their precomputed schedule, so a skipped or repeated
	// cycle silently drops or duplicates samples.
	if !c.started {
		c.started = true
		if r.Cycle != 0 {
			c.report(r, "cycle-contiguous", "first record at cycle %d, want 0", r.Cycle)
		}
	} else if r.Cycle != c.prevCycle+1 {
		c.report(r, "cycle-contiguous", "cycle %d follows %d", r.Cycle, c.prevCycle)
	}
	c.prevCycle = r.Cycle

	// Bank shape: fixed commit width, head bank in range.
	if r.NumBanks < 1 || r.NumBanks > trace.MaxBanks {
		c.report(r, "bank-count", "NumBanks %d outside [1, %d]", r.NumBanks, trace.MaxBanks)
		return // the bank scans below (and oir.observe) would index out of range
	}
	if r.NumBanks != c.commitWidth {
		c.report(r, "bank-count", "NumBanks %d, core commit width %d", r.NumBanks, c.commitWidth)
	}
	if int(r.HeadBank) >= r.NumBanks {
		c.report(r, "head-bank", "HeadBank %d with %d banks", r.HeadBank, r.NumBanks)
	}

	// Per-bank flag consistency and the commit count.
	valid, committing, flushCommits := 0, 0, 0
	for i := 0; i < r.NumBanks; i++ {
		b := &r.Banks[i]
		if !b.Valid {
			if b.Committing {
				c.report(r, "bank-flags", "bank %d commits without a valid entry", i)
			}
			continue
		}
		valid++
		if b.Committing {
			committing++
			if b.Exception {
				c.report(r, "bank-flags", "bank %d commits an excepting instruction", i)
			}
			if b.Flush {
				flushCommits++
			}
		}
	}
	if int(r.CommitCount) != committing {
		c.report(r, "commit-count", "CommitCount %d, %d banks committing", r.CommitCount, committing)
	}

	// ROB-empty flag agrees with the banks.
	if r.ROBEmpty && valid > 0 {
		c.report(r, "rob-empty", "ROBEmpty with %d valid banks", valid)
	}
	if !r.ROBEmpty && valid == 0 {
		c.report(r, "rob-empty", "ROB not empty but no valid banks")
	}

	// At most one flush/exception cause per cycle, and exceptions are
	// raised instead of (never alongside) commits, from the ROB head.
	if causes := flushCommits + boolInt(r.ExceptionRaised); causes > 1 {
		c.report(r, "single-cause", "%d flush/exception causes in one cycle", causes)
	}
	if r.ExceptionRaised {
		if r.CommitCount != 0 {
			c.report(r, "exception-commit", "exception raised alongside %d commits", r.CommitCount)
		}
		if old := r.Oldest(); old == nil {
			c.report(r, "exception-head", "exception raised with an empty ROB")
		} else if !old.Exception || old.FID != r.ExceptionFID {
			c.report(r, "exception-head",
				"excepting FID %d but head entry FID %d (exception flag %v)",
				r.ExceptionFID, old.FID, old.Exception)
		}
	}

	// A flushing commit ends the commit group: it must be the youngest
	// committing instruction this cycle.
	if flushCommits > 0 {
		if y := r.YoungestCommitting(); y != nil && !y.Flush {
			c.report(r, "flush-last", "instructions commit after a flushing instruction")
		}
	}

	// FIDs are fetch-ordered: strictly increasing along the ROB in age
	// order, and commits never reuse or reorder FIDs across the run (even
	// across flushes — refetched instructions get fresh FIDs).
	prevFID, haveFID := uint64(0), false
	for i := 0; i < r.NumBanks; i++ {
		b := &r.Banks[(int(r.HeadBank)+i)%r.NumBanks]
		if !b.Valid {
			continue
		}
		if haveFID && b.FID <= prevFID {
			c.report(r, "fid-order", "FID %d not older than FID %d in age order", prevFID, b.FID)
		}
		prevFID, haveFID = b.FID, true
	}
	if committing > 0 {
		if old := oldestCommitting(r); old != nil {
			if c.haveCommitFID && old.FID <= c.lastCommitFID {
				c.report(r, "commit-fid-monotonic",
					"committing FID %d after FID %d already committed", old.FID, c.lastCommitFID)
			}
		}
		if y := r.YoungestCommitting(); y != nil {
			c.lastCommitFID = y.FID
			c.haveCommitFID = true
		}
		c.anyCommit = true
		c.lastCommit = r.Cycle
	}

	// Front-end observations: dispatch implies in-flight work, and
	// YoungestFID really is the youngest.
	if r.DispatchValid && !r.AnyInFlight {
		c.report(r, "dispatch-inflight", "dispatch-stage instruction without in-flight work")
	}
	if r.AnyInFlight {
		for i := 0; i < r.NumBanks; i++ {
			if b := &r.Banks[i]; b.Valid && b.FID > r.YoungestFID {
				c.report(r, "youngest-fid", "bank %d FID %d exceeds YoungestFID %d", i, b.FID, r.YoungestFID)
			}
		}
		if r.DispatchValid && r.DispatchFID > r.YoungestFID {
			c.report(r, "youngest-fid", "dispatch FID %d exceeds YoungestFID %d", r.DispatchFID, r.YoungestFID)
		}
	} else if valid > 0 {
		c.report(r, "youngest-fid", "valid ROB entries but AnyInFlight is unset")
	}

	// In-flight FID window: FIDs are dense (every fetched instruction
	// enters the fetch buffer then the ROB in order), so the span from the
	// ROB head to the youngest in-flight instruction is bounded by the ROB
	// plus fetch-buffer capacity — the 128-entry ROB bound, observed
	// through the trace.
	if r.AnyInFlight {
		if old := r.Oldest(); old != nil {
			bound := uint64(c.robEntries + c.fetchBufEntries)
			if window := r.YoungestFID - old.FID + 1; window > bound {
				c.report(r, "occupancy", "in-flight FID window %d exceeds %d (ROB %d + fetch buffer %d)",
					window, bound, c.robEntries, c.fetchBufEntries)
			}
		}
	}

	// Exactly one of the paper's four commit-stage states holds; tally it
	// for the end-of-run cross-check against the Oracle's cycle stack.
	switch {
	case !r.ROBEmpty && r.CommitCount > 0:
		c.stateCycles[stateComputing]++
	case !r.ROBEmpty:
		c.stateCycles[stateStalled]++
	case r.CommitCount == 0:
		if c.oir.flushed() {
			c.stateCycles[stateFlushed]++
		} else {
			c.stateCycles[stateDrained]++
		}
	default:
		c.report(r, "state-partition", "empty ROB with CommitCount %d", r.CommitCount)
	}

	c.oir.observe(r)
}

// Finish implements trace.Consumer.
func (c *Checker) Finish(totalCycles uint64) {
	c.finished = true
	c.totalCycles = totalCycles
	if c.records == 0 {
		c.report(nil, "empty-trace", "Finish(%d) with no records", totalCycles)
		return
	}
	// The run length is the cycle after the last commit (trailing
	// commit-free cycles would mean the core kept stepping a dead machine).
	if c.anyCommit && totalCycles != c.lastCommit+1 {
		c.report(nil, "total-cycles", "total %d, last commit at cycle %d", totalCycles, c.lastCommit)
	}
	if totalCycles > c.records {
		c.report(nil, "total-cycles", "total %d exceeds %d observed records", totalCycles, c.records)
	}
}

// auditViolations evaluates the registered conservation audits against the
// profilers' current state. It is recomputed on every call (rather than
// latched at Finish) so audits can be registered after the run and so tests
// can probe the same checker before and after injecting a mutation.
func (c *Checker) auditViolations() []Violation {
	if !c.finished {
		return nil
	}
	var out []Violation
	add := func(name, invariant, format string, args ...any) {
		out = append(out, Violation{
			Benchmark: c.benchmark,
			Cycle:     c.totalCycles,
			Invariant: invariant,
			Detail:    name + ": " + fmt.Sprintf(format, args...),
		})
	}
	total := float64(c.totalCycles)
	tol := 1e-8*total + 1e-6
	for _, a := range c.oracles {
		if att := a.o.Profile.Attributed(); math.Abs(att-total) > tol {
			add(a.name, "conservation", "attributed %.6f cycles of %d total", att, c.totalCycles)
		}
		sum := 0.0
		for _, v := range a.o.Stack.Cycles {
			sum += v
		}
		if math.Abs(sum-total) > tol {
			add(a.name, "conservation", "cycle stack sums to %.6f of %d total", sum, c.totalCycles)
		}
		// Cross-check the Oracle's category totals against the checker's
		// independently derived state tally.
		if c.records > 0 {
			groups := [numStates]float64{
				stateComputing: a.o.Stack.Cycles[profile.CatExecution],
				stateStalled: a.o.Stack.Cycles[profile.CatALUStall] +
					a.o.Stack.Cycles[profile.CatLoadStall] +
					a.o.Stack.Cycles[profile.CatStoreStall],
				stateFlushed: a.o.Stack.Cycles[profile.CatMispredict] +
					a.o.Stack.Cycles[profile.CatMiscFlush],
				stateDrained: a.o.Stack.Cycles[profile.CatFrontend],
			}
			for s, want := range c.stateCycles {
				if math.Abs(groups[s]-float64(want)) > tol {
					add(a.name, "state-tally", "%s: stack has %.6f cycles, trace shows %d",
						stateNames[s], groups[s], want)
				}
			}
		}
	}
	for _, a := range c.sampleds {
		want := a.s.SampledWeight
		got := a.s.Profile.Attributed() + a.s.LostWeight
		tolS := 1e-8*math.Max(want, 1) + 1e-6
		if math.Abs(got-want) > tolS {
			add(a.name, "conservation",
				"attributed %.6f + lost %.6f != sampled weight %.6f (%d samples)",
				a.s.Profile.Attributed(), a.s.LostWeight, want, a.s.Samples)
		}
	}
	return out
}

// Violations returns every stored violation: per-cycle failures first (up
// to maxStoredViolations), then end-of-run audit failures.
func (c *Checker) Violations() []Violation {
	out := append([]Violation(nil), c.stored...)
	return append(out, c.auditViolations()...)
}

// Count returns the total number of violations, including per-cycle ones
// suppressed past the storage cap.
func (c *Checker) Count() uint64 {
	return c.count + uint64(len(c.auditViolations()))
}

// Err returns nil when no invariant was violated, or an error summarizing
// the violations.
func (c *Checker) Err() error {
	vs := c.Violations()
	if n := c.Count(); n > 0 {
		show := vs
		if len(show) > 3 {
			show = show[:3]
		}
		lines := make([]string, len(show))
		for i, v := range show {
			lines[i] = v.String()
		}
		return fmt.Errorf("check: %d invariant violation(s):\n  %s", n, strings.Join(lines, "\n  "))
	}
	return nil
}

// Report renders a full human-readable violation report, or a clean
// summary when no invariant was violated.
func (c *Checker) Report() string {
	vs := c.Violations()
	if len(vs) == 0 {
		return fmt.Sprintf("check: %s: %d cycles, %d records, 0 violations",
			c.benchmark, c.totalCycles, c.records)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s: %d violation(s) over %d records:\n", c.benchmark, c.Count(), c.records)
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	return b.String()
}

// DumpRecord renders a record compactly for violation reports.
func DumpRecord(r *trace.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cyc=%d banks=%d head=%d commits=%d", r.Cycle, r.NumBanks, r.HeadBank, r.CommitCount)
	if r.ROBEmpty {
		b.WriteString(" empty")
	}
	for i := 0; i < r.NumBanks && i < trace.MaxBanks; i++ {
		e := &r.Banks[i]
		if !e.Valid {
			continue
		}
		fmt.Fprintf(&b, " b%d{fid=%d idx=%d pc=%#x", i, e.FID, e.InstIndex, e.PC)
		for _, f := range []struct {
			on bool
			s  string
		}{{e.Committing, "C"}, {e.Mispredicted, "M"}, {e.Flush, "F"}, {e.Exception, "X"}} {
			if f.on {
				b.WriteString(" " + f.s)
			}
		}
		b.WriteString("}")
	}
	if r.ExceptionRaised {
		fmt.Fprintf(&b, " exc{fid=%d idx=%d}", r.ExceptionFID, r.ExceptionInstIndex)
	}
	if r.DispatchValid {
		fmt.Fprintf(&b, " disp{fid=%d idx=%d}", r.DispatchFID, r.DispatchInstIndex)
	}
	if r.AnyInFlight {
		fmt.Fprintf(&b, " yfid=%d", r.YoungestFID)
	}
	return b.String()
}

// oldestCommitting returns the oldest committing bank entry (age order).
func oldestCommitting(r *trace.Record) *trace.BankEntry {
	for i := 0; i < r.NumBanks; i++ {
		b := &r.Banks[(int(r.HeadBank)+i)%r.NumBanks]
		if b.Valid && b.Committing {
			return b
		}
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
