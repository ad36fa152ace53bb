package cpu

import (
	"testing"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
)

// pointerChaseProgram builds a serial chain of dependent loads over a
// region of the given size.
func pointerChaseProgram(size uint64, iters int) *program.Program {
	b := program.NewBuilder("chase")
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Load(isa.IntReg(5), isa.IntReg(5), program.MemBehavior{
		Base: 1 << 30, Size: size, Pattern: program.MemChase,
	})
	b0.LoopBack(0, iters)
	b1 := f.NewBlock()
	b1.Ret()
	return b.MustBuild(0)
}

func TestPointerChaseSerializesOnMemory(t *testing.T) {
	// A DRAM-resident chase must average at least the LLC-miss latency
	// per load; an L1-resident chase is bounded by the L1 load-to-use.
	slow, _ := runProgram(t, pointerChaseProgram(64<<20, 3000), 1)
	fast, _ := runProgram(t, pointerChaseProgram(8<<10, 3000), 1)
	slowCPL := float64(slow.Cycles) / 3000 // cycles per load
	fastCPL := float64(fast.Cycles) / 3000
	if slowCPL < 40 {
		t.Fatalf("DRAM chase %.1f cycles/load, too fast", slowCPL)
	}
	if fastCPL > 12 {
		t.Fatalf("L1 chase %.1f cycles/load, too slow", fastCPL)
	}
}

func TestUnpipelinedDivide(t *testing.T) {
	// Back-to-back independent divides still serialize on the single
	// divider; ALU ops of the same count do not.
	build := func(kind isa.Kind) *program.Program {
		b := program.NewBuilder("div")
		f := b.Func("main")
		b0 := f.NewBlock()
		for i := 0; i < 4; i++ {
			b0.Op(kind, isa.IntReg(i+1), isa.IntReg(i+1))
		}
		b0.LoopBack(0, 1000)
		b1 := f.NewBlock()
		b1.Ret()
		return b.MustBuild(0)
	}
	div, _ := runProgram(t, build(isa.KindIntDiv), 1)
	alu, _ := runProgram(t, build(isa.KindIntALU), 1)
	// 4 divides/iter at 16 cycles on one unit: >= 64 cycles/iter.
	if perIter := float64(div.Cycles) / 1000; perIter < 60 {
		t.Fatalf("divide loop %.1f cycles/iter, divider not serializing", perIter)
	}
	if div.Cycles < 10*alu.Cycles {
		t.Fatalf("divides (%d) not dramatically slower than ALU (%d)", div.Cycles, alu.Cycles)
	}
}

func TestAtomicSerializesAndAccessesMemory(t *testing.T) {
	b := program.NewBuilder("atomic")
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 4; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(i+1))
	}
	b0.Atomic(isa.IntReg(7), isa.IntReg(8), program.MemBehavior{Base: 1 << 30, Size: 4 << 10})
	b0.LoopBack(0, 500)
	b1 := f.NewBlock()
	b1.Ret()
	p := b.MustBuild(0)
	stats, _ := runProgram(t, p, 1)
	if stats.CSRFlushes != 0 {
		t.Fatal("atomics should not flush")
	}
	// Serialization bounds IPC well below the ALU-only rate.
	if stats.IPC() > 1.0 {
		t.Fatalf("atomic loop IPC %.2f, serialization missing", stats.IPC())
	}
}

func TestExceptionOnStore(t *testing.T) {
	b := program.NewBuilder("stfault")
	h := b.Func("os_handler")
	hb := h.NewBlock()
	hb.Op(isa.KindIntALU, isa.IntReg(1))
	hb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Store(isa.IntReg(1), isa.IntReg(2), program.MemBehavior{Base: 1 << 30, Size: 64})
	b0.Ret()
	b.SetEntry(f)
	b.SetHandler(h)
	p := b.MustBuild(0)

	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	stats, err := core.Run(&trace.CountingConsumer{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exceptions != 1 {
		t.Fatalf("store fault raised %d exceptions", stats.Exceptions)
	}
	// Store + handler (2) + ret all commit.
	if stats.Committed != 4 {
		t.Fatalf("committed %d, want 4", stats.Committed)
	}
}

func TestROBFullBackpressure(t *testing.T) {
	// One DRAM-missing load followed by hundreds of independent ALU ops:
	// the ROB fills while the load stalls at its head.
	b := program.NewBuilder("robfull")
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Load(isa.IntReg(1), isa.IntReg(2), program.MemBehavior{
		Base: 1 << 30, Size: 64 << 20, Pattern: program.MemRandom,
	})
	for i := 0; i < 20; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(3+i%6), isa.IntReg(3+i%6))
	}
	b0.LoopBack(0, 2000)
	b1 := f.NewBlock()
	b1.Ret()
	p := b.MustBuild(0)

	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	maxValid := 0
	cc := &callbackConsumer{onCycle: func(r *trace.Record) {
		n := 0
		for i := 0; i < r.NumBanks; i++ {
			if r.Banks[i].Valid {
				n++
			}
		}
		if n > maxValid {
			maxValid = n
		}
	}}
	if _, err := core.Run(cc); err != nil {
		t.Fatal(err)
	}
	if maxValid != cfg.CommitWidth {
		t.Fatalf("never saw all %d banks valid (max %d)", cfg.CommitWidth, maxValid)
	}
}

func TestDispatchObservationInTrace(t *testing.T) {
	p := independentALULoop(500)
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	sawDispatch := false
	sawInFlight := false
	cc := &callbackConsumer{onCycle: func(r *trace.Record) {
		if r.DispatchValid {
			sawDispatch = true
			if r.DispatchPC == 0 {
				t.Error("dispatch-valid record with zero PC")
			}
		}
		if r.AnyInFlight {
			sawInFlight = true
		}
	}}
	if _, err := core.Run(cc); err != nil {
		t.Fatal(err)
	}
	if !sawDispatch {
		t.Fatal("no record ever showed a dispatch-stage instruction")
	}
	if !sawInFlight {
		t.Fatal("no record ever showed in-flight instructions")
	}
}

func TestYoungestFIDMonotoneWithinRun(t *testing.T) {
	p := independentALULoop(300)
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	last := uint64(0)
	cc := &callbackConsumer{onCycle: func(r *trace.Record) {
		if r.AnyInFlight {
			if r.YoungestFID < last {
				t.Errorf("youngest FID regressed: %d after %d", r.YoungestFID, last)
			}
			last = r.YoungestFID
		}
	}}
	if _, err := core.Run(cc); err != nil {
		t.Fatal(err)
	}
}

func TestTLBStatsPopulated(t *testing.T) {
	// A large random footprint touches many pages: the D-TLB must miss
	// and the walker must run.
	p := loadProgram(32<<20, program.MemRandom, 3000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	if _, err := core.Run(nil); err != nil {
		t.Fatal(err)
	}
	if core.MMU().DTLBMisses == 0 || core.MMU().Walks == 0 {
		t.Fatalf("TLB never missed on a 32 MB random footprint: %+v misses, %d walks",
			core.MMU().DTLBMisses, core.MMU().Walks)
	}
	if core.hier.DRAM.Accesses == 0 {
		t.Fatal("DRAM never accessed")
	}
}

func TestBTBBubblesCounted(t *testing.T) {
	// A program with many distinct taken jumps exceeds BTB warmup and
	// counts front-end bubbles.
	b := program.NewBuilder("jumps")
	f := b.Func("main")
	blocks := make([]*program.BlockBuilder, 40)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for i := 0; i < 38; i++ {
		blocks[i].Op(isa.KindIntALU, isa.IntReg(1))
		blocks[i].Jump(i + 1)
	}
	blocks[38].LoopBack(0, 100)
	blocks[39].Ret()
	p := b.MustBuild(0)
	stats, _ := runProgram(t, p, 1)
	if stats.BTBBubbles == 0 {
		t.Fatal("taken jumps never missed the BTB")
	}
}

func TestCommitWidthNarrowCore(t *testing.T) {
	p := independentALULoop(2000)
	cfg := DefaultConfig()
	cfg.CommitWidth = 2
	cfg.DispatchWidth = 2
	cfg.ROBEntries = 64
	cfg.MaxCycles = 10_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	stats, err := core.Run(&trace.CountingConsumer{})
	if err != nil {
		t.Fatal(err)
	}
	if ipc := stats.IPC(); ipc > 2.01 {
		t.Fatalf("2-wide core reached IPC %.2f", ipc)
	}
	if ipc := stats.IPC(); ipc < 1.5 {
		t.Fatalf("2-wide core only reached IPC %.2f on independent ALUs", ipc)
	}
}

func TestSerializedThenException(t *testing.T) {
	// A fence immediately before a faulting load: serialization and the
	// exception path compose without deadlock.
	b := program.NewBuilder("mix")
	h := b.Func("os_handler")
	hb := h.NewBlock()
	hb.Op(isa.KindIntALU, isa.IntReg(1))
	hb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	b0.Op(isa.KindIntALU, isa.IntReg(2))
	b0.Fence()
	b0.Load(isa.IntReg(3), isa.IntReg(4), program.MemBehavior{Base: 1 << 30, Size: 64})
	b0.Ret()
	b.SetEntry(f)
	b.SetHandler(h)
	p := b.MustBuild(0)
	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	core := New(cfg, p, program.NewInterp(p, 1))
	stats, err := core.Run(&trace.CountingConsumer{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exceptions != 1 {
		t.Fatalf("exceptions = %d", stats.Exceptions)
	}
	if stats.Committed != 6 { // alu, fence, load, handler alu, handler ret, main ret
		t.Fatalf("committed = %d, want 6", stats.Committed)
	}
}

func TestFlushDuringSerializeRefetchesFetchBuffer(t *testing.T) {
	// A flushing CSR with younger instructions already in the fetch
	// buffer: they must be squashed and refetched, and all of them must
	// still commit exactly once.
	p := csrFlushProgram(50, true)
	stats, v := runProgram(t, p, 1)
	want := uint64(50*14 + 1) // 6 ALU + CSR + 6 ALU + branch per iter, + ret
	if stats.Committed != want {
		t.Fatalf("committed %d, want %d", stats.Committed, want)
	}
	if uint64(len(v.committedFID)) != want {
		t.Fatalf("distinct FIDs %d, want %d", len(v.committedFID), want)
	}
}

func TestPMUSamplingInterrupts(t *testing.T) {
	p := independentALULoop(3000)
	base, _ := runProgram(t, p, 1)

	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	cfg.SampleInterruptEvery = 500
	core := New(cfg, independentALULoop(3000), nil)
	_ = core
	core2 := New(cfg, p, program.NewInterp(p, 1))
	core2.MMU().PrefaultAll()
	stats, err := core2.Run(&trace.CountingConsumer{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PMUInterrupts == 0 {
		t.Fatal("no interrupts injected")
	}
	wantInterrupts := stats.Cycles / cfg.SampleInterruptEvery
	if stats.PMUInterrupts < wantInterrupts-2 || stats.PMUInterrupts > wantInterrupts+2 {
		t.Fatalf("interrupts = %d, want ~%d", stats.PMUInterrupts, wantInterrupts)
	}
	// Interrupts add handler instructions and flush/replay cost.
	if stats.Cycles <= base.Cycles {
		t.Fatalf("interrupted run (%d cycles) not slower than base (%d)", stats.Cycles, base.Cycles)
	}
	// The application instruction count is unchanged; the handler adds
	// 43 instructions (3 blocks x 14 + ret) per interrupt... the ALU loop
	// program has no handler, so committed counts match exactly.
	if stats.Committed != base.Committed {
		t.Fatalf("committed %d != base %d", stats.Committed, base.Committed)
	}
}

func TestPMUInterruptWithHandlerProgram(t *testing.T) {
	// With a program that has an OS handler, the handler's instructions
	// commit on every interrupt.
	p := csrFlushProgram(200, false)
	// Rebuild with a handler attached.
	b := program.NewBuilder("withhandler")
	h := b.Func("os_handler")
	hb := h.NewBlock()
	for i := 0; i < 10; i++ {
		hb.Op(isa.KindIntALU, isa.IntReg(1+i%4))
	}
	hb.Ret()
	f := b.Func("main")
	b0 := f.NewBlock()
	for i := 0; i < 10; i++ {
		b0.Op(isa.KindIntALU, isa.IntReg(1+i%6))
	}
	b0.LoopBack(0, 2000)
	b1 := f.NewBlock()
	b1.Ret()
	b.SetEntry(f)
	b.SetHandler(h)
	p = b.MustBuild(0)

	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	cfg.SampleInterruptEvery = 997
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	stats, err := core.Run(&trace.CountingConsumer{})
	if err != nil {
		t.Fatal(err)
	}
	app := uint64(2000*11 + 1)
	wantHandler := stats.PMUInterrupts * 11
	if stats.Committed != app+wantHandler {
		t.Fatalf("committed %d, want %d app + %d handler", stats.Committed, app, wantHandler)
	}
}
