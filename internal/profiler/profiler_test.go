package profiler

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// fig4Program lays out the instructions used by the Figure 4 scenarios:
// index 0,1 dummies, then I1, load, I3, I4, branch, I5, I6, I2.
func fig4Program(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("fig4")
	f := b.Func("main")
	blk := f.NewBlock()
	blk.Op(isa.KindIntALU, isa.IntReg(1))                                          // 0: dummy
	blk.Op(isa.KindIntALU, isa.IntReg(2))                                          // 1: dummy2
	blk.Op(isa.KindIntALU, isa.IntReg(3))                                          // 2: I1
	blk.Load(isa.IntReg(4), isa.IntReg(5), program.MemBehavior{Base: 0, Size: 64}) // 3: load
	blk.Op(isa.KindIntALU, isa.IntReg(6))                                          // 4: I3
	blk.Op(isa.KindIntALU, isa.IntReg(7))                                          // 5: I4
	blk.Op(isa.KindIntALU, isa.IntReg(8))                                          // 6: I5
	blk.Op(isa.KindIntALU, isa.IntReg(9))                                          // 7: I6
	blk.Op(isa.KindIntALU, isa.IntReg(10))                                         // 8: I2
	blk.Branch(1, program.BranchBehavior{Mode: program.BrRandom, P: 0.5})          // 9: branch
	b2 := f.NewBlock()
	b2.Ret() // 10
	return b.MustBuild(0)
}

const (
	idxDummy  = 0
	idxDummy2 = 1
	idxI1     = 2
	idxLoad   = 3
	idxI3     = 4
	idxI4     = 5
	idxI5     = 6
	idxI6     = 7
	idxI2     = 8
	idxBranch = 9
)

// seq builds a record sequence for a 2-wide commit machine.
type seq struct {
	prog *program.Program
	recs []trace.Record
	fid  uint64
}

func newSeq(p *program.Program) *seq { return &seq{prog: p, fid: 1} }

type ent struct {
	idx          int
	committing   bool
	mispredicted bool
	flush        bool
	exception    bool
	fid          uint64 // 0 = auto-assign on commit order
}

// cycle appends a record whose ROB holds entries (oldest first, at most 2).
func (s *seq) cycle(entries ...ent) *trace.Record {
	var r trace.Record
	r.Cycle = uint64(len(s.recs))
	r.NumBanks = 2
	r.HeadBank = 0
	if len(entries) == 0 {
		r.ROBEmpty = true
	}
	commits := 0
	for i, e := range entries {
		if i >= 2 {
			panic("seq: at most 2 entries")
		}
		fid := e.fid
		if fid == 0 {
			fid = s.fid
			s.fid++
		}
		in := s.prog.InstByIndex(e.idx)
		r.Banks[i] = trace.BankEntry{
			Valid: true, Committing: e.committing,
			Mispredicted: e.mispredicted, Flush: e.flush, Exception: e.exception,
			PC: in.PC, FID: fid, InstIndex: int32(e.idx),
		}
		if e.committing {
			commits++
		}
	}
	r.CommitCount = uint8(commits)
	s.recs = append(s.recs, r)
	return &s.recs[len(s.recs)-1]
}

// run feeds the sequence to consumers and finishes them.
func (s *seq) run(consumers ...trace.Consumer) {
	for i := range s.recs {
		for _, c := range consumers {
			c.OnCycle(&s.recs[i])
		}
	}
	for _, c := range consumers {
		c.Finish(uint64(len(s.recs)))
	}
}

// everyCycle samples every cycle (weight 1 after the first).
type everyCycle struct{}

func (everyCycle) Next(c uint64) uint64 { return c + 1 }
func (everyCycle) Period() uint64       { return 1 }

func buildAll(p *program.Program) (or *Oracle, byKind map[Kind]*Sampled, consumers []trace.Consumer) {
	or = NewOracle(p, true)
	byKind = map[Kind]*Sampled{}
	consumers = []trace.Consumer{or}
	for _, k := range AllKinds() {
		sp := NewSampled(k, p, everyCycle{})
		byKind[k] = sp
		consumers = append(consumers, sp)
	}
	return
}

func checkCycles(t *testing.T, name string, prof *profile.Profile, want map[int]float64) {
	t.Helper()
	for idx, w := range want {
		if got := prof.InstCycles[idx]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: inst %d = %v cycles, want %v", name, idx, got, w)
		}
	}
}

// BenchmarkSampledObserve measures the per-cycle cost of the TIP sampled
// profiler over a stall-heavy stream: bursts of commits separated by long
// stalls on the load, the shape that dominates replay time. Exercises the
// commit-gated fast path and the pending-sample resolve path.
func BenchmarkSampledObserve(b *testing.B) {
	p := fig4Program(b)
	s := newSeq(p)
	for burst := 0; burst < 64; burst++ {
		s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxLoad})
		for stall := 0; stall < 20; stall++ {
			s.cycle(ent{idx: idxLoad}, ent{idx: idxI3})
		}
		s.cycle(ent{idx: idxLoad, committing: true}, ent{idx: idxI3, committing: true})
		s.cycle(ent{idx: idxI4, committing: true}, ent{idx: idxI5, committing: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := NewSampled(KindTIP, p, everyCycle{})
		for r := range s.recs {
			sp.OnCycle(&s.recs[r])
		}
		sp.Finish(uint64(len(s.recs)))
	}
}

// TestFig4bStalled reproduces Figure 4b: a 40-cycle load stall.
func TestFig4bStalled(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})  // c0
	s.cycle(ent{idx: idxDummy2, committing: true}) // c1
	loadFID := uint64(100)
	i3FID := uint64(101)
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxLoad, fid: loadFID}) // c2
	for i := 0; i < 40; i++ {                                                   // c3..c42: stalled on the load
		s.cycle(ent{idx: idxLoad, fid: loadFID}, ent{idx: idxI3, fid: i3FID})
	}
	s.cycle(ent{idx: idxLoad, committing: true, fid: loadFID}, ent{idx: idxI3, committing: true, fid: i3FID}) // c43

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxI1: 1, idxLoad: 40.5, idxI3: 0.5})
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxI1: 1, idxLoad: 40.5, idxI3: 0.5})
	checkCycles(t, "TIP-ILP", by[KindTIPILP].Profile, map[int]float64{idxI1: 1, idxLoad: 41, idxI3: 0})
	checkCycles(t, "NCI", by[KindNCI].Profile, map[int]float64{idxI1: 1, idxLoad: 41, idxI3: 0})
	checkCycles(t, "LCI", by[KindLCI].Profile, map[int]float64{idxI1: 41, idxLoad: 1, idxI3: 0})
	// Stall cycles classified as load stalls in the cycle stack.
	if or.Stack.Cycles[profile.CatLoadStall] != 40 {
		t.Errorf("Oracle load-stall cycles = %v, want 40", or.Stack.Cycles[profile.CatLoadStall])
	}
}

// TestFig4cFlushed reproduces Figure 4c: a mispredicted branch empties the
// ROB for 4 cycles.
func TestFig4cFlushed(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxDummy2, committing: true})
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxBranch, committing: true, mispredicted: true}) // c2
	for i := 0; i < 4; i++ {                                                                              // c3..c6: flushed
		s.cycle()
	}
	i5FID := uint64(200)
	s.cycle(ent{idx: idxI5, fid: i5FID})                                                      // c7: stalled on I5
	s.cycle(ent{idx: idxI5, committing: true, fid: i5FID}, ent{idx: idxI6, committing: true}) // c8

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxI1: 0.5, idxBranch: 4.5, idxI5: 1.5, idxI6: 0.5})
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxI1: 0.5, idxBranch: 4.5, idxI5: 1.5, idxI6: 0.5})
	// NCI blames I5 for the flush and gives the branch nothing.
	checkCycles(t, "NCI", by[KindNCI].Profile, map[int]float64{idxI1: 1, idxBranch: 0, idxI5: 6, idxI6: 0})
	// LCI gets the flush right.
	checkCycles(t, "LCI", by[KindLCI].Profile, map[int]float64{idxI1: 1, idxBranch: 5, idxI5: 1, idxI6: 0})
	if or.Stack.Cycles[profile.CatMispredict] != 4 {
		t.Errorf("mispredict flush cycles = %v, want 4", or.Stack.Cycles[profile.CatMispredict])
	}
}

// TestFig4dDrained reproduces Figure 4d: an I-cache miss drains the ROB.
func TestFig4dDrained(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxDummy2, committing: true})
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxI2, committing: true}) // c2
	for i := 0; i < 40; i++ {                                                     // c3..c42: drained (no flush flags)
		s.cycle()
	}
	i3FID := uint64(300)
	s.cycle(ent{idx: idxI3, fid: i3FID})                                                      // c43: stalled on I3
	s.cycle(ent{idx: idxI3, committing: true, fid: i3FID}, ent{idx: idxI4, committing: true}) // c44

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxI1: 0.5, idxI2: 0.5, idxI3: 41.5, idxI4: 0.5})
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxI1: 0.5, idxI2: 0.5, idxI3: 41.5, idxI4: 0.5})
	// NCI is mostly correct here.
	checkCycles(t, "NCI", by[KindNCI].Profile, map[int]float64{idxI1: 1, idxI3: 42, idxI4: 0})
	// LCI blames I2, the last-committed instruction before the drain.
	checkCycles(t, "LCI", by[KindLCI].Profile, map[int]float64{idxI1: 1, idxI2: 41, idxI3: 1, idxI4: 0})
	if or.Stack.Cycles[profile.CatFrontend] != 40 {
		t.Errorf("front-end cycles = %v, want 40", or.Stack.Cycles[profile.CatFrontend])
	}
}

// TestCSRFlushAttribution: a CSR with the flush flag commits alone and the
// empty cycles after it belong to the CSR (TIP/Oracle) versus the next
// committing instruction (NCI) — the Imagick case-study mechanism (§6).
func TestCSRFlushAttribution(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxDummy2, committing: true, flush: true}) // CSR-like flush commit
	for i := 0; i < 6; i++ {
		s.cycle() // flushed
	}
	s.cycle(ent{idx: idxI1, committing: true})

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxDummy2: 7, idxI1: 1})
	// The first sample (cycle 1) carries weight 2 (it also represents
	// cycle 0), so the sampled profilers see 8 cycles on the CSR window.
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxDummy2: 8, idxI1: 1})
	checkCycles(t, "NCI", by[KindNCI].Profile, map[int]float64{idxDummy2: 2, idxI1: 7})
	if or.Stack.Cycles[profile.CatMiscFlush] != 6 {
		t.Errorf("misc flush cycles = %v, want 6", or.Stack.Cycles[profile.CatMiscFlush])
	}
}

// TestExceptionAttribution: empty-ROB cycles after an exception go to the
// excepting instruction (paper §2.2, page-miss walkthrough).
func TestExceptionAttribution(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	loadFID := uint64(50)
	// Load stalled at head with its exception pending.
	s.cycle(ent{idx: idxLoad, exception: true, fid: loadFID})
	r := s.cycle(ent{idx: idxLoad, exception: true, fid: loadFID})
	r.ExceptionRaised = true
	r.ExceptionPC = p.InstByIndex(idxLoad).PC
	r.ExceptionFID = loadFID
	r.ExceptionInstIndex = idxLoad
	for i := 0; i < 5; i++ {
		s.cycle() // flushed due to exception
	}
	s.cycle(ent{idx: idxI1, committing: true}) // handler/replay resumes

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	// Load: 2 stall cycles + 5 exception-flush cycles (TIP's first
	// sample carries the cycle-0 weight too).
	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxLoad: 7, idxI1: 1})
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxLoad: 8, idxI1: 1})
	if or.Stack.Cycles[profile.CatMiscFlush] != 5 {
		t.Errorf("exception flush cycles = %v, want 5", or.Stack.Cycles[profile.CatMiscFlush])
	}
}

// TestComputingILPSplit: TIP splits co-committed cycles, TIP-ILP/NCI do not.
func TestComputingILPSplit(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	for i := 0; i < 10; i++ {
		s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxI2, committing: true})
	}

	or, by, consumers := buildAll(p)
	s.run(consumers...)

	checkCycles(t, "Oracle", or.Profile, map[int]float64{idxI1: 5, idxI2: 5})
	checkCycles(t, "TIP", by[KindTIP].Profile, map[int]float64{idxI1: 5.5, idxI2: 5.5})
	checkCycles(t, "TIP-ILP", by[KindTIPILP].Profile, map[int]float64{idxI1: 11, idxI2: 0})
	checkCycles(t, "NCI", by[KindNCI].Profile, map[int]float64{idxI1: 11, idxI2: 0})
	checkCycles(t, "NCI+ILP", by[KindNCIILP].Profile, map[int]float64{idxI1: 5.5, idxI2: 5.5})
}

// TestSoftwareSkid: the software profiler attributes samples far past the
// stalled instruction — to where execution resumes after the drain.
func TestSoftwareSkid(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	loadFID, i3FID := uint64(10), uint64(11)
	// Load stalls for 5 cycles with I3 in flight; youngest in-flight is
	// a fetched-but-not-dispatched I5 (FID 12).
	for i := 0; i < 5; i++ {
		r := s.cycle(ent{idx: idxLoad, fid: loadFID}, ent{idx: idxI3, fid: i3FID})
		r.AnyInFlight = true
		r.YoungestFID = 12
	}
	s.cycle(ent{idx: idxLoad, committing: true, fid: loadFID}, ent{idx: idxI3, committing: true, fid: i3FID})
	// I5 (FID 12) and I6 (FID 13) commit: software samples resolve at
	// FID >= 13, i.e. on I6 — not the load that caused the stall.
	s.cycle(ent{idx: idxI5, fid: 12, committing: true}, ent{idx: idxI6, fid: 13, committing: true})

	sw := NewSampled(KindSoftware, p, everyCycle{})
	s.run(sw)

	if got := sw.Profile.InstCycles[idxLoad]; got != 0 {
		t.Errorf("software attributed %v cycles to the stalled load", got)
	}
	if got := sw.Profile.InstCycles[idxI6]; got < 5 {
		t.Errorf("software skid target I6 got %v cycles, want >= 5", got)
	}
}

// TestDispatchTagging: dispatch samples tag the instruction at dispatch and
// resolve when it commits.
func TestDispatchTagging(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	loadFID := uint64(20)
	// Load stalls; I5 (FID 25) is stuck at the dispatch stage (Fig. 2b).
	for i := 0; i < 6; i++ {
		r := s.cycle(ent{idx: idxLoad, fid: loadFID})
		r.DispatchValid = true
		r.DispatchPC = p.InstByIndex(idxI5).PC
		r.DispatchFID = 25
		r.DispatchInstIndex = idxI5
		r.AnyInFlight = true
		r.YoungestFID = 25
	}
	s.cycle(ent{idx: idxLoad, committing: true, fid: loadFID})
	s.cycle(ent{idx: idxI5, fid: 25, committing: true})

	dp := NewSampled(KindDispatch, p, everyCycle{})
	s.run(dp)

	if got := dp.Profile.InstCycles[idxI5]; got < 6 {
		t.Errorf("dispatch attributed %v cycles to I5, want >= 6 (bias)", got)
	}
	if got := dp.Profile.InstCycles[idxLoad]; got > 1.5 {
		t.Errorf("dispatch attributed %v cycles to the load, want ~1", got)
	}
}

// TestOracleAccountsEveryCycle: total attribution equals the cycle count.
func TestOracleAccountsEveryCycle(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxBranch, committing: true, mispredicted: true})
	s.cycle()
	s.cycle()
	s.cycle(ent{idx: idxI5, committing: true})
	or := NewOracle(p, false)
	s.run(or)
	if got := or.Profile.Attributed(); got != 5 {
		t.Fatalf("Oracle attributed %v cycles for a 5-cycle run", got)
	}
	if or.Profile.TotalCycles != 5 {
		t.Fatalf("TotalCycles = %v", or.Profile.TotalCycles)
	}
}

// TestOracleDrainAtEnd: pending drain cycles are conserved at Finish.
func TestOracleDrainAtEnd(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle()
	s.cycle()
	or := NewOracle(p, false)
	s.run(or)
	if got := or.Profile.Attributed(); got != 3 {
		t.Fatalf("attributed %v, want 3 (drain charged at Finish)", got)
	}
}

// TestTIPEqualsOracleOnSampledCycles: sampling every cycle, TIP's profile
// matches Oracle's exactly (the statistical error vanishes).
func TestTIPEqualsOracleOnSampledCycles(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	// Two dummy cycles so the weight-2 first sample lands on the dummy
	// exactly like Oracle's two dummy cycles.
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxI2, committing: true})
	loadFID := uint64(31)
	for i := 0; i < 7; i++ {
		s.cycle(ent{idx: idxLoad, fid: loadFID})
	}
	s.cycle(ent{idx: idxLoad, committing: true, fid: loadFID})
	s.cycle(ent{idx: idxBranch, committing: true, mispredicted: true})
	s.cycle()
	s.cycle()
	s.cycle(ent{idx: idxI5, committing: true}, ent{idx: idxI6, committing: true})

	or, by, consumers := buildAll(p)
	s.run(consumers...)
	tip := by[KindTIP]
	for i := 0; i < p.NumInsts(); i++ {
		want := or.Profile.InstCycles[i]
		if got := tip.Profile.InstCycles[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("TIP inst %d = %v, Oracle %v", i, got, want)
		}
	}
	if err := tip.Profile.Error(or.Profile, profile.GranInstruction, false); err > 1e-9 {
		t.Errorf("TIP error sampling every cycle = %v, want 0", err)
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	o := Overhead{CommitWidth: 4, ClockHz: 3_200_000_000, SampleHz: 4000}
	if got := o.StorageBytes(); got != 57 {
		t.Errorf("storage = %d B, want 57", got)
	}
	if got := o.TIPSampleBytes(); got != 88 {
		t.Errorf("TIP sample = %d B, want 88", got)
	}
	if got := o.NonILPSampleBytes(); got != 56 {
		t.Errorf("non-ILP sample = %d B, want 56", got)
	}
	if got := o.TIPBytesPerSecond(); got != 352_000 {
		t.Errorf("TIP rate = %d B/s, want 352 KB/s", got)
	}
	if got := o.TIPCSRBytesPerSecond(); got != 192_000 {
		t.Errorf("TIP CSR rate = %d B/s, want 192 KB/s", got)
	}
	if got := o.NonILPBytesPerSecond(); got != 224_000 {
		t.Errorf("non-ILP rate = %d B/s, want 224 KB/s", got)
	}
	// Oracle's rate is ~179 GB/s.
	gb := float64(o.OracleBytesPerSecond()) / 1e9
	if gb < 170 || gb > 190 {
		t.Errorf("Oracle rate = %.1f GB/s, want ~179", gb)
	}
	if r := o.ReductionVsOracle(); r < 100_000 {
		t.Errorf("reduction vs Oracle = %.0fx, want several orders of magnitude", r)
	}
}

func TestKindNames(t *testing.T) {
	want := []string{"Software", "Dispatch", "LCI", "NCI", "NCI+ILP", "TIP-ILP", "TIP"}
	for i, k := range AllKinds() {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

// TestParseKinds checks the shared profiler-name parser: case-insensitive,
// space-tolerant, order-preserving, and naming the known set on a miss.
func TestParseKinds(t *testing.T) {
	got, err := ParseKinds([]string{" tip", "NCI+ilp", "Software"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindTIP, KindNCIILP, KindSoftware}
	if !slices.Equal(got, want) {
		t.Fatalf("ParseKinds = %v, want %v", got, want)
	}
	_, err = ParseKinds([]string{"TIP", "perf"})
	if err == nil || !strings.Contains(err.Error(), `unknown profiler "perf"`) ||
		!strings.Contains(err.Error(), "known: Software, Dispatch, LCI, NCI, NCI+ILP, TIP-ILP, TIP") {
		t.Fatalf("error %v, want the unknown name and the known set", err)
	}
}
