package profiler

import (
	"fmt"
	"slices"
	"strings"

	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
)

// Kind identifies a sampled-profiler policy.
type Kind int

const (
	// KindSoftware models interrupt-based profiling (Linux perf without
	// hardware support): the sample lands on the instruction execution
	// resumes from after all in-flight instructions drain — skid.
	KindSoftware Kind = iota
	// KindDispatch models AMD IBS / Arm SPE dispatch tagging: the
	// instruction at the dispatch stage is tagged and the sample is
	// collected when it commits.
	KindDispatch
	// KindLCI models external monitors (Arm CoreSight): the sample goes
	// to the last-committed instruction.
	KindLCI
	// KindNCI models Intel PEBS: the sample goes to the next-committing
	// instruction.
	KindNCI
	// KindNCIILP is the §5.2 variant of NCI that splits the sample over
	// all instructions co-committing with the next-committing one.
	KindNCIILP
	// KindTIPILP is TIP without ILP accounting: commit-cycle samples go
	// to a single committing instruction.
	KindTIPILP
	// KindTIP is the full Time-Proportional Instruction Profiler (§3).
	KindTIP

	numKinds
)

// NumKinds is the number of sampled-profiler policies.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	"Software", "Dispatch", "LCI", "NCI", "NCI+ILP", "TIP-ILP", "TIP",
}

// String names the policy as in the paper's figures.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "profiler(?)"
}

// AllKinds lists every sampled-profiler policy.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKinds resolves profiler names, matched case-insensitively and with
// surrounding spaces ignored, in order.
func ParseKinds(names []string) ([]Kind, error) {
	var out []Kind
	for _, name := range names {
		i := slices.IndexFunc(kindNames[:], func(kn string) bool {
			return strings.EqualFold(kn, strings.TrimSpace(name))
		})
		if i < 0 {
			return nil, fmt.Errorf("unknown profiler %q (known: %s)", name, strings.Join(kindNames[:], ", "))
		}
		out = append(out, Kind(i))
	}
	return out, nil
}

// pendingSample is a sample awaiting a resolution event.
type pendingSample struct {
	weight float64
	// targetFID is the fetch-ID threshold for Software/Dispatch
	// resolution; unused by NCI-style pending samples.
	targetFID uint64
	// flags are the TIP flags CSR latched at sample time (category
	// post-processing, §3.1).
	flags SampleFlags
}

// Sampled is one statistical profiler instance.
type Sampled struct {
	// Kind is the attribution policy.
	Kind Kind
	// Profile accumulates the sampled attribution.
	Profile *profile.Profile
	// Samples counts collected samples.
	Samples uint64
	// SampledWeight is the total cycle weight of all samples taken (each
	// sample carries the length of the interval behind it).
	SampledWeight float64
	// LostWeight is sampled weight that could not be attributed to any
	// instruction: samples pending at end of run, LCI samples before the
	// first commit, and attributions to unknown instruction indices.
	// Conservation (checked by internal/check) requires
	// Profile.Attributed() + LostWeight == SampledWeight.
	LostWeight float64
	// Categories, when enabled on a TIP-family profiler, accumulates the
	// §3.1 flag-based cycle categorization alongside the profile.
	Categories *CategoryProfile

	prog  *program.Program
	sched sampling.Schedule
	next  uint64
	last  uint64 // previous sample cycle + 1 (start of current window)

	// facts is the per-cycle policy state (OIR, last-committed tracking).
	// A standalone profiler owns a private copy and advances it itself;
	// one attached to a Dispatcher shares the dispatcher's copy, advanced
	// once per cycle for the whole sample-aware tier.
	facts    *CycleFacts
	ownFacts bool
	// pend holds samples awaiting a resolution event. Each kind has one
	// resolution rule (see resolve), so one queue serves every kind.
	pend []pendingSample
	// minTarget is, for Software and Dispatch, the least targetFID in pend:
	// no pending sample resolves on a commit cycle whose youngest
	// committing FID is below it. It stays 0 for every other kind, which
	// resolves on every event.
	minTarget uint64
}

// event names the record event that can resolve a kind's pending samples.
type event uint8

const (
	// eventNone: the kind never defers a sample (LCI).
	eventNone event = iota
	// eventCommit: the cycle commits (CommitCount > 0). Software and
	// Dispatch wait for a commit at or past a fetch ID, NCI and NCI+ILP
	// for the next committing cycle.
	eventCommit
	// eventOldest: the ROB holds an oldest entry (!ROBEmpty). TIP and
	// TIP-ILP drain samples wait for the first instruction to dispatch.
	eventOldest
)

// resolvedBy returns the event that can resolve k's pending samples.
func (k Kind) resolvedBy() event {
	switch k {
	case KindSoftware, KindDispatch, KindNCI, KindNCIILP:
		return eventCommit
	case KindTIP, KindTIPILP:
		return eventOldest
	}
	return eventNone
}

// on reports whether r carries the event.
func (e event) on(r *trace.Record) bool {
	switch e {
	case eventCommit:
		return r.CommitCount > 0
	case eventOldest:
		return !r.ROBEmpty
	}
	return false
}

// NewSampled builds a sampled profiler of the given kind over prog,
// sampling on sched.
func NewSampled(kind Kind, prog *program.Program, sched sampling.Schedule) *Sampled {
	s := &Sampled{
		Kind:     kind,
		Profile:  profile.New(prog),
		prog:     prog,
		sched:    sched,
		facts:    &CycleFacts{},
		ownFacts: true,
	}
	s.next = sched.Next(0)
	return s
}

// Period returns the profiler's nominal sampling period in cycles (the
// shard balancer's cost model: expected wakeups per cycle is 1/Period).
func (s *Sampled) Period() uint64 { return s.sched.Period() }

// EnableCategories turns on §3.1 sample categorization (TIP exposes the
// flags CSR; the post-processing needs the program binary). withBreakdown
// additionally keeps the per-instruction category matrix.
func (s *Sampled) EnableCategories(withBreakdown bool) {
	s.Categories = NewCategoryProfile(s.prog, withBreakdown)
}

// cat records a categorized attribution when categorization is enabled.
func (s *Sampled) cat(flags SampleFlags, idx int32, w float64) {
	if s.Categories != nil {
		s.Categories.Add(flags, idx, w)
	}
}

// add attributes sample weight, booking weight aimed at an unknown
// instruction as lost so conservation stays checkable.
func (s *Sampled) add(idx int32, w float64) {
	if idx < 0 || int(idx) >= s.prog.NumInsts() {
		s.LostWeight += w
		return
	}
	s.Profile.Add(idx, w)
}

// OnCycle implements trace.Consumer.
func (s *Sampled) OnCycle(r *trace.Record) {
	// Gated on CommitCount like oir.observe: most cycles commit nothing,
	// and the bank scan is the facts' entire cost.
	var yc *trace.BankEntry
	if r.CommitCount > 0 {
		yc = r.YoungestCommitting()
	}
	s.observe(r, yc)
	if s.ownFacts {
		s.facts.observe(r, yc)
	}
}

// observe handles one record's attribution work: resolve pending samples,
// then take a new sample if this is a scheduled cycle. It deliberately does
// NOT advance the cycle facts — a standalone profiler does that in OnCycle,
// while a Dispatcher advances the shared facts once for its whole tier.
// yc is r.YoungestCommitting(), nil on cycles that commit nothing. This is
// the reference path: a Dispatcher calls resolve and sample itself, only on
// the cycles where they can act.
func (s *Sampled) observe(r *trace.Record, yc *trace.BankEntry) {
	// Resolve pending samples first: a sample taken in an earlier cycle
	// resolves on this cycle's events (commits, dispatches).
	if len(s.pend) > 0 && s.Kind.resolvedBy().on(r) {
		s.resolve(r, yc)
	}

	if r.Cycle == s.next {
		w := float64(r.Cycle + 1 - s.last)
		s.last = r.Cycle + 1
		s.next = s.sched.Next(r.Cycle)
		s.sample(r, w)
	}
}

// sample books one scheduled sample of weight w (the cycles since the
// previous sample) and takes it on r.
func (s *Sampled) sample(r *trace.Record, w float64) {
	s.Samples++
	s.SampledWeight += w
	s.take(r, w)
}

// take captures one sample with the given weight according to the policy.
func (s *Sampled) take(r *trace.Record, w float64) {
	switch s.Kind {
	case KindSoftware:
		// The interrupt fires, in-flight instructions drain, and the
		// saved PC is the next instruction after them.
		if r.AnyInFlight {
			s.deferTo(w, r.YoungestFID+1)
		} else {
			s.deferTo(w, 0)
		}
	case KindDispatch:
		if r.DispatchValid {
			s.deferTo(w, r.DispatchFID)
		} else if r.AnyInFlight {
			// Nothing at dispatch: tag the next instruction to
			// arrive there.
			s.deferTo(w, r.YoungestFID+1)
		} else {
			s.deferTo(w, 0)
		}
	case KindLCI:
		if r.CommitCount > 0 {
			// A commit in the sampled cycle: the freshest commit
			// record is the oldest instruction committing now
			// (Fig. 4b: the load, not its ILP partner).
			if old := oldestCommitting(r); old != nil {
				s.add(old.InstIndex, w)
			} else {
				s.LostWeight += w
			}
		} else if s.facts.lastCommittedSet {
			s.add(s.facts.lastCommitted, w)
		} else {
			// Before the first commit of the run the sample is lost.
			s.LostWeight += w
		}
	case KindNCI:
		// "Next committing" includes instructions committing in the
		// sampled cycle itself.
		if old := oldestCommitting(r); old != nil {
			s.add(old.InstIndex, w)
		} else {
			s.pend = append(s.pend, pendingSample{weight: w})
		}
	case KindNCIILP:
		if r.CommitCount > 0 {
			split := w / float64(r.CommitCount)
			n, b := scanStart(r)
			for i := 0; i < n; i++ {
				e := &r.Banks[b]
				if e.Valid && e.Committing {
					s.add(e.InstIndex, split)
				}
				if b++; b == n {
					b = 0
				}
			}
		} else {
			s.pend = append(s.pend, pendingSample{weight: w})
		}
	case KindTIP, KindTIPILP:
		s.takeTIP(r, w)
	}
}

// deferTo queues a Software or Dispatch sample that resolves once an
// instruction at or past target commits, keeping minTarget.
func (s *Sampled) deferTo(w float64, target uint64) {
	if len(s.pend) == 0 || target < s.minTarget {
		s.minTarget = target
	}
	s.pend = append(s.pend, pendingSample{weight: w, targetFID: target})
}

// takeTIP implements the Fig. 6 sample-selection logic.
func (s *Sampled) takeTIP(r *trace.Record, w float64) {
	flags := flagsForRecord(r, &s.facts.o)
	if !r.ROBEmpty {
		if r.CommitCount > 0 {
			// Computing state.
			if s.Kind == KindTIP {
				split := w / float64(r.CommitCount)
				n, b := scanStart(r)
				for i := 0; i < n; i++ {
					e := &r.Banks[b]
					if e.Valid && e.Committing {
						s.add(e.InstIndex, split)
						s.cat(flags, e.InstIndex, split)
					}
					if b++; b == n {
						b = 0
					}
				}
			} else if old := oldestCommitting(r); old != nil {
				// TIP-ILP: single instruction.
				s.add(old.InstIndex, w)
				s.cat(flags, old.InstIndex, w)
			} else {
				s.LostWeight += w
			}
			return
		}
		// Stalled state: the Oldest ID register points at the stalled
		// instruction.
		if old := r.Oldest(); old != nil {
			s.add(old.InstIndex, w)
			s.cat(flags, old.InstIndex, w)
		} else {
			s.LostWeight += w
		}
		return
	}
	// ROB empty: Flushed (OIR flags set) or Drained (front-end flag; the
	// sample waits for the first instruction to dispatch).
	if s.facts.o.flushed() {
		s.add(s.facts.o.instIndex, w)
		s.cat(flags, s.facts.o.instIndex, w)
		return
	}
	s.pend = append(s.pend, pendingSample{weight: w, flags: flags})
}

// resolve settles pending samples against this cycle's record. Call it only
// when samples are pending and r carries the kind's resolvedBy event. yc is
// r.YoungestCommitting(), which only the Software/Dispatch rule reads; a
// Dispatcher computes it once per commit cycle for all its waiters.
func (s *Sampled) resolve(r *trace.Record, yc *trace.BankEntry) {
	switch s.Kind {
	case KindNCI:
		if old := oldestCommitting(r); old != nil {
			for _, p := range s.pend {
				s.add(old.InstIndex, p.weight)
			}
			s.pend = s.pend[:0]
		}
	case KindNCIILP:
		split := 1.0 / float64(r.CommitCount)
		for _, p := range s.pend {
			n, b := scanStart(r)
			for i := 0; i < n; i++ {
				e := &r.Banks[b]
				if e.Valid && e.Committing {
					s.add(e.InstIndex, p.weight*split)
				}
				if b++; b == n {
					b = 0
				}
			}
		}
		s.pend = s.pend[:0]
	case KindTIP, KindTIPILP:
		if old := r.Oldest(); old != nil {
			for _, p := range s.pend {
				s.add(old.InstIndex, p.weight)
				s.cat(p.flags, old.InstIndex, p.weight)
			}
			s.pend = s.pend[:0]
		}
	case KindSoftware, KindDispatch:
		// The youngest committing FID bounds every pending target: an
		// entry resolves this cycle iff its target is at or below it, so
		// below minTarget nothing resolves and the list is left alone.
		if yc == nil || yc.FID < s.minTarget {
			return
		}
		maxFID := yc.FID
		keep := s.pend[:0]
		for _, p := range s.pend {
			if p.targetFID <= maxFID {
				idx, _ := firstCommitAtOrAfter(r, p.targetFID)
				s.add(idx, p.weight)
			} else {
				if len(keep) == 0 || p.targetFID < s.minTarget {
					s.minTarget = p.targetFID
				}
				keep = append(keep, p)
			}
		}
		s.pend = keep
	}
}

// Finish implements trace.Consumer. Unresolved samples are dropped, like
// samples a real profiler would attribute past the end of the run; their
// weight is booked as lost so conservation stays checkable.
func (s *Sampled) Finish(totalCycles uint64) {
	s.Profile.TotalCycles = float64(totalCycles)
	for _, p := range s.pend {
		s.LostWeight += p.weight
	}
	s.pend = nil
}

// scanStart returns the bank count and the oldest bank's index reduced into
// [0, n), for age-order scans that wrap-increment instead of taking a modulo
// per step. n == 0 when the record carries no banks (callers' loops then do
// not run, matching the old modulo scan).
func scanStart(r *trace.Record) (n, b int) {
	n = r.NumBanks
	if n <= 0 {
		return 0, 0
	}
	b = int(r.HeadBank)
	if b >= n {
		b %= n
	}
	return n, b
}

// oldestCommitting returns the oldest committing bank entry.
func oldestCommitting(r *trace.Record) *trace.BankEntry {
	n, b := scanStart(r)
	for i := 0; i < n; i++ {
		e := &r.Banks[b]
		if e.Valid && e.Committing {
			return e
		}
		if b++; b == n {
			b = 0
		}
	}
	return nil
}

// firstCommitAtOrAfter returns the instruction index of the oldest
// committing entry with FID >= target.
func firstCommitAtOrAfter(r *trace.Record, target uint64) (int32, bool) {
	n, b := scanStart(r)
	for i := 0; i < n; i++ {
		e := &r.Banks[b]
		if e.Valid && e.Committing && e.FID >= target {
			return e.InstIndex, true
		}
		if b++; b == n {
			b = 0
		}
	}
	return -1, false
}
