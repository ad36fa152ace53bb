package cpu

import (
	"testing"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// validator checks per-record structural invariants while counting.
type validator struct {
	t            *testing.T
	cycles       uint64
	commits      uint64
	finished     bool
	total        uint64
	lastCycle    uint64
	committedFID map[uint64]bool
	commitOrder  []uint64
}

func newValidator(t *testing.T) *validator {
	return &validator{t: t, committedFID: map[uint64]bool{}}
}

func (v *validator) OnCycle(r *trace.Record) {
	if v.cycles > 0 && r.Cycle != v.lastCycle+1 {
		v.t.Fatalf("non-contiguous cycles: %d after %d", r.Cycle, v.lastCycle)
	}
	v.lastCycle = r.Cycle
	v.cycles++
	n := 0
	anyValid := false
	for i := 0; i < r.NumBanks; i++ {
		b := &r.Banks[i]
		if b.Committing && !b.Valid {
			v.t.Fatalf("cycle %d: committing invalid entry in bank %d", r.Cycle, i)
		}
		if b.Valid {
			anyValid = true
		}
		if b.Committing {
			n++
			if v.committedFID[b.FID] {
				v.t.Fatalf("cycle %d: FID %d committed twice", r.Cycle, b.FID)
			}
			v.committedFID[b.FID] = true
		}
	}
	if n != int(r.CommitCount) {
		v.t.Fatalf("cycle %d: CommitCount %d but %d committing banks", r.Cycle, r.CommitCount, n)
	}
	if r.ROBEmpty && anyValid {
		v.t.Fatalf("cycle %d: ROBEmpty with valid banks", r.Cycle)
	}
	if !r.ROBEmpty && !anyValid {
		v.t.Fatalf("cycle %d: non-empty ROB with no valid banks", r.Cycle)
	}
	// Committing FIDs must be in age order and monotonically increasing
	// across the run (commit is in order; replays get fresh FIDs).
	for _, e := range r.CommittingInAgeOrder(nil) {
		v.commitOrder = append(v.commitOrder, e.FID)
	}
	v.commits += uint64(r.CommitCount)
}

func (v *validator) Finish(total uint64) {
	v.finished = true
	v.total = total
	for i := 1; i < len(v.commitOrder); i++ {
		if v.commitOrder[i] <= v.commitOrder[i-1] {
			v.t.Fatalf("commit order regressed: %d after %d", v.commitOrder[i], v.commitOrder[i-1])
		}
	}
}

func runProgram(t *testing.T, p *program.Program, seed uint64) (Stats, *validator) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	core := New(cfg, p, program.NewInterp(p, seed))
	core.MMU().PrefaultAll() // default: no data faults
	v := newValidator(t)
	stats, err := core.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if !v.finished {
		t.Fatal("consumer never finished")
	}
	return stats, v
}

// independentALULoop: N iterations of 8 independent ALU ops + loop branch.
func independentALULoop(iters int) *program.Program {
	b := program.NewBuilder("alu")
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 8; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(i+1))
	}
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

// dependentChainLoop: each op depends on the previous.
func dependentChainLoop(iters int) *program.Program {
	b := program.NewBuilder("chain")
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 8; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(1), isa.IntReg(1))
	}
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

func TestHighILPReachesCommitWidth(t *testing.T) {
	stats, v := runProgram(t, independentALULoop(5000), 1)
	if ipc := stats.IPC(); ipc < 3.0 {
		t.Fatalf("independent ALU loop IPC = %.2f, want near commit width 4", ipc)
	}
	if v.commits != stats.Committed {
		t.Fatalf("trace commits %d != stats %d", v.commits, stats.Committed)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	stats, _ := runProgram(t, dependentChainLoop(5000), 1)
	if ipc := stats.IPC(); ipc > 1.3 {
		t.Fatalf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

func TestAllInstructionsCommitOnce(t *testing.T) {
	p := independentALULoop(1000)
	stats, v := runProgram(t, p, 1)
	// 9 insts per iteration (8 ALU + branch) * 1000 + ret.
	want := uint64(9*1000 + 1)
	if stats.Committed != want {
		t.Fatalf("committed %d, want %d", stats.Committed, want)
	}
	if uint64(len(v.committedFID)) != want {
		t.Fatalf("distinct committed FIDs %d, want %d", len(v.committedFID), want)
	}
}

func TestTotalCyclesMatchesTrace(t *testing.T) {
	stats, v := runProgram(t, independentALULoop(100), 1)
	if v.total != stats.Cycles {
		t.Fatalf("Finish total %d != stats cycles %d", v.total, stats.Cycles)
	}
	if v.cycles < stats.Cycles {
		t.Fatalf("trace has %d records for %d cycles", v.cycles, stats.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := runProgram(t, independentALULoop(2000), 7)
	b, _ := runProgram(t, independentALULoop(2000), 7)
	if a != b {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

func TestPredictableLoopFewMispredicts(t *testing.T) {
	stats, _ := runProgram(t, independentALULoop(5000), 1)
	if stats.Mispredicts > 50 {
		t.Fatalf("predictable loop had %d mispredicts", stats.Mispredicts)
	}
}

func randomBranchProgram(iters int) *program.Program {
	b := program.NewBuilder("randbr")
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Op(isa.KindIntALU, isa.IntReg(1))
	b0.Branch(2, program.BranchBehavior{Mode: program.BrRandom, P: 0.5})
	b1 := f.NewBlock()
	b1.Op(isa.KindIntALU, isa.IntReg(2))
	b1.Jump(3)
	b2 := f.NewBlock()
	b2.Op(isa.KindIntALU, isa.IntReg(3))
	b2.Jump(3)
	b3 := f.NewBlock()
	b3.LoopBack(0, iters)
	b4 := f.NewBlock()
	b4.Ret()
	return b.MustBuild(0)
}

func TestRandomBranchesMispredict(t *testing.T) {
	iters := 4000
	stats, _ := runProgram(t, randomBranchProgram(iters), 3)
	// The 50/50 branch should mispredict roughly half the time.
	if stats.Mispredicts < uint64(iters)/4 {
		t.Fatalf("only %d mispredicts across %d random branches", stats.Mispredicts, iters)
	}
	// Mispredicts slow the machine down well below the ALU-bound rate.
	if ipc := stats.IPC(); ipc > 2.5 {
		t.Fatalf("random-branch IPC = %.2f, implausibly high", ipc)
	}
}

func csrFlushProgram(iters int, flush bool) *program.Program {
	b := program.NewBuilder("csr")
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 6; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(i+1))
	}
	b0.CSR("fsflags", isa.IntReg(10), flush)
	for i := 0; i < 6; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(i+1))
	}
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

func TestCSRFlushCountsAndRefetch(t *testing.T) {
	stats, _ := runProgram(t, csrFlushProgram(500, true), 1)
	if stats.CSRFlushes != 500 {
		t.Fatalf("CSRFlushes = %d, want 500", stats.CSRFlushes)
	}
	// Flushes squash and refetch younger instructions.
	if stats.Fetched <= stats.Committed {
		t.Fatalf("fetched %d <= committed %d despite flushes", stats.Fetched, stats.Committed)
	}
}

func TestCSRFlushSlowsExecution(t *testing.T) {
	flush, _ := runProgram(t, csrFlushProgram(500, true), 1)
	noflush, _ := runProgram(t, csrFlushProgram(500, false), 1)
	if flush.Committed != noflush.Committed {
		t.Fatalf("committed differ: %d vs %d", flush.Committed, noflush.Committed)
	}
	if float64(flush.Cycles) < 1.3*float64(noflush.Cycles) {
		t.Fatalf("flushing run (%d cycles) not clearly slower than non-flushing (%d)", flush.Cycles, noflush.Cycles)
	}
}

func TestSerializingCSRWithoutFlushStillDrains(t *testing.T) {
	// Even a non-flushing CSR serializes: IPC must drop well below the
	// pure-ALU version of the same loop.
	csr, _ := runProgram(t, csrFlushProgram(500, false), 1)
	alu, _ := runProgram(t, independentALULoop(500), 1)
	if csr.IPC() >= alu.IPC() {
		t.Fatalf("serializing CSR IPC %.2f >= plain ALU IPC %.2f", csr.IPC(), alu.IPC())
	}
}

func fenceProgram(iters int) *program.Program {
	b := program.NewBuilder("fence")
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 4; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(i+1))
	}
	b0.Fence()
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

func TestFenceSerializesWithoutFlush(t *testing.T) {
	stats, _ := runProgram(t, fenceProgram(300), 1)
	if stats.CSRFlushes != 0 {
		t.Fatalf("fence caused %d flushes", stats.CSRFlushes)
	}
	// Fences do not refetch.
	if stats.Fetched != stats.Committed {
		t.Fatalf("fetched %d != committed %d", stats.Fetched, stats.Committed)
	}
	if stats.IPC() > 2.0 {
		t.Fatalf("fence-heavy IPC %.2f too high", stats.IPC())
	}
}

func loadProgram(footprint uint64, pattern program.MemPattern, iters int) *program.Program {
	b := program.NewBuilder("loads")
	f := b.Func("main")
	b0 := f.NewBlock()
	mb := program.MemBehavior{Base: 1 << 30, Size: footprint, Pattern: pattern, Stride: 64}
	b0.Load(isa.IntReg(1), isa.IntReg(2), mb)
	b0.Op(isa.KindIntALU, isa.IntReg(3), isa.IntReg(1))
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

func TestCacheResidentLoadsFast(t *testing.T) {
	small, _ := runProgram(t, loadProgram(8<<10, program.MemStride, 4000), 1)
	big, _ := runProgram(t, loadProgram(64<<20, program.MemRandom, 4000), 1)
	if small.Cycles*2 >= big.Cycles {
		t.Fatalf("L1-resident run (%d cycles) not much faster than DRAM-bound (%d)", small.Cycles, big.Cycles)
	}
}

func TestPageFaultExceptionFlow(t *testing.T) {
	b := program.NewBuilder("fault")
	h := b.Func("os_handler")
	hb := h.NewBlock()
	for i := 0; i < 20; i++ {
		hb.Op(isa.KindIntALU, isa.IntReg(i%8+1))
	}
	hb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	// Touch 4 distinct pages via a 4-page stride region.
	b0.Load(isa.IntReg(1), isa.IntReg(2), program.MemBehavior{
		Base: 1 << 30, Size: 4 * 4096, Stride: 4096,
	})
	b0.Op(isa.KindIntALU, isa.IntReg(3), isa.IntReg(1))
	b0.LoopBack(0, 8)
	b1 := f.NewBlock()
	b1.Ret()
	b.SetEntry(f)
	b.SetHandler(h)
	p := b.MustBuild(0)

	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	// Deliberately do NOT prefault the data region.
	v := newValidator(t)
	stats, err := core.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exceptions != 4 {
		t.Fatalf("exceptions = %d, want 4 (one per page)", stats.Exceptions)
	}
	// The handler runs per fault: 21 handler insts x 4 + app insts.
	app := uint64(8*3 + 1)
	if stats.Committed != app+4*21 {
		t.Fatalf("committed = %d, want %d", stats.Committed, app+4*21)
	}
	if core.MMU().PresentPages() < 4 {
		t.Fatal("pages not installed")
	}
}

func TestExceptionRaisedVisibleInTrace(t *testing.T) {
	b := program.NewBuilder("fault2")
	h := b.Func("os_handler")
	hb := h.NewBlock()
	hb.Op(isa.KindIntALU, isa.IntReg(1))
	hb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Load(isa.IntReg(1), isa.IntReg(2), program.MemBehavior{Base: 1 << 30, Size: 64})
	b0.Ret()
	b.SetEntry(f)
	b.SetHandler(h)
	p := b.MustBuild(0)

	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	seen := false
	var exPC uint64
	cc := &callbackConsumer{onCycle: func(r *trace.Record) {
		if r.ExceptionRaised {
			seen = true
			exPC = r.ExceptionPC
		}
	}}
	if _, err := core.Run(cc); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no ExceptionRaised record")
	}
	if exPC != p.Entry().Blocks[0].Insts[0].PC {
		t.Fatalf("exception PC %#x, want the load %#x", exPC, p.Entry().Blocks[0].Insts[0].PC)
	}
}

type callbackConsumer struct {
	onCycle func(*trace.Record)
}

func (c *callbackConsumer) OnCycle(r *trace.Record) { c.onCycle(r) }
func (c *callbackConsumer) Finish(uint64)           {}

func TestStoreHeavyWorkload(t *testing.T) {
	b := program.NewBuilder("stores")
	f := b.Func("main")
	b0 := f.NewBlock()
	mb := program.MemBehavior{Base: 1 << 30, Size: 64 << 20, Pattern: program.MemRandom}
	for i := 0; i < 4; i++ {
		b0.Store(isa.IntReg(1), isa.IntReg(2), mb)
	}
	b0.LoopBack(0, 2000)
	b1 := f.NewBlock()
	b1.Ret()
	p := b.MustBuild(0)
	stats, _ := runProgram(t, p, 1)
	if stats.StoreStallCycles == 0 {
		t.Fatal("DRAM-bound store stream never stalled the store buffer")
	}
}

func TestCallReturnRASNoMispredicts(t *testing.T) {
	b := program.NewBuilder("calls")
	leaf := b.Func("leaf")
	lb := leaf.NewBlock()
	lb.Op(isa.KindIntALU, isa.IntReg(1))
	lb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Call(leaf)
	b1 := f.NewBlock()
	b1.LoopBack(0, 2000)
	b2 := f.NewBlock()
	b2.Ret()
	b.SetEntry(f)
	p := b.MustBuild(0)
	stats, _ := runProgram(t, p, 1)
	if stats.Mispredicts > 20 {
		t.Fatalf("balanced call/ret produced %d mispredicts", stats.Mispredicts)
	}
}

func TestMispredictEmptiesROB(t *testing.T) {
	// A hard-to-predict branch right before dependent work: the ROB
	// should drain while fetch waits on resolution, producing empty-ROB
	// cycles (flush state for the profilers).
	p := randomBranchProgram(2000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000_000
	core := New(cfg, p, program.NewInterp(p, 3))
	core.MMU().PrefaultAll()
	emptyCycles := uint64(0)
	cc := &callbackConsumer{onCycle: func(r *trace.Record) {
		if r.ROBEmpty {
			emptyCycles++
		}
	}}
	stats, err := core.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	if emptyCycles == 0 {
		t.Fatal("mispredict-heavy run never emptied the ROB")
	}
	if emptyCycles < stats.Mispredicts {
		t.Fatalf("only %d empty cycles for %d mispredicts", emptyCycles, stats.Mispredicts)
	}
}

func TestICacheFootprintSlowdown(t *testing.T) {
	// A program with a huge straight-line body exceeds the 32 KB L1I and
	// pays front-end stalls versus a tight loop with the same dynamic
	// instruction count.
	bigBody := func(nblocks int, iters int) *program.Program {
		b := program.NewBuilder("big")
		f := b.Func("main")
		blocks := make([]*program.BlockBuilder, nblocks+2)
		for i := range blocks {
			blocks[i] = f.NewBlock()
		}
		for i := 0; i < nblocks; i++ {
			for j := 0; j < 32; j++ {
				blocks[i].Op(isa.KindIntALU, isa.IntReg(j%8+1), isa.IntReg(j%8+1))
			}
		}
		blocks[nblocks].LoopBack(0, iters)
		blocks[nblocks+1].Ret()
		return b.MustBuild(0)
	}
	// 640 blocks x 32 insts x 4 B = 80 KB of code, 2.5x the L1I.
	big, _ := runProgram(t, bigBody(640, 4), 1)
	small, _ := runProgram(t, bigBody(8, 320), 1)
	// Dynamic instruction counts match to within the loop-branch overhead.
	if diff := int64(big.Committed) - int64(small.Committed); diff > 1000 || diff < -1000 {
		t.Fatalf("dynamic inst counts too different: %d vs %d", big.Committed, small.Committed)
	}
	if float64(big.Cycles) < 1.1*float64(small.Cycles) {
		t.Fatalf("I-cache-thrashing run (%d) not slower than resident run (%d)", big.Cycles, small.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBEntries = 126 // not a multiple of 4 banks
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(bad, independentALULoop(1), nil)
}

func TestMaxCyclesAborts(t *testing.T) {
	p := independentALULoop(1 << 30)
	cfg := DefaultConfig()
	cfg.MaxCycles = 1000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	if _, err := core.Run(&trace.CountingConsumer{}); err == nil {
		t.Fatal("expected MaxCycles error")
	}
}

func BenchmarkCoreALULoop(b *testing.B) {
	p := independentALULoop(1 << 30)
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Step(uint64(i), &rec)
	}
	b.ReportMetric(float64(core.Stats().Committed)/float64(b.N), "IPC")
}

func BenchmarkCoreMemBound(b *testing.B) {
	p := loadProgram(64<<20, program.MemRandom, 1<<30)
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Step(uint64(i), &rec)
	}
}

// TestMaxCyclesBoundary pins the cap to exactly MaxCycles cycles: a run
// that needs N cycles to drain succeeds at MaxCycles=N and aborts at N-1.
func TestMaxCyclesBoundary(t *testing.T) {
	p := independentALULoop(64)
	run := func(maxCycles uint64) (uint64, error) {
		cfg := DefaultConfig()
		cfg.MaxCycles = maxCycles
		core := New(cfg, p, program.NewInterp(p, 1))
		core.MMU().PrefaultAll()
		cc := &trace.CountingConsumer{}
		_, err := core.Run(cc)
		return cc.Cycles, err
	}
	// One record is emitted per stepped cycle, so the unbounded run's
	// record count is the exact number of cycles the core needs.
	steps, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(steps); err != nil {
		t.Fatalf("MaxCycles=%d (exact) aborted: %v", steps, err)
	}
	if _, err := run(steps - 1); err == nil {
		t.Fatalf("MaxCycles=%d (one short) did not abort", steps-1)
	}
}
