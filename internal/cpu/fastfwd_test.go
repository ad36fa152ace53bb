package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tipprof/tip/internal/isa"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// TestFastForwardConservesInstructions checks the checkpoint → fast-forward
// → resume seam loses and duplicates nothing: detailed commits plus
// functionally executed instructions equal a pure detailed run's commits on
// the same (program, seed).
func TestFastForwardConservesInstructions(t *testing.T) {
	mk := func() *program.Program { return loadProgram(1<<20, program.MemStride, 20_000) }

	full, _ := runProgram(t, mk(), 3)

	p := mk()
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 3))
	core.MMU().PrefaultAll()
	ff := program.NewFastForward(p)

	var rec trace.Record
	cycle := uint64(0)
	for ; cycle < 2000; cycle++ {
		if done, _ := core.Step(cycle, &rec); done {
			t.Fatal("program finished before the fast-forward point")
		}
	}
	core.ArchCheckpoint(cycle)
	executed, done := core.FastForward(ff, 5000)
	if executed != 5000 || done {
		t.Fatalf("FastForward executed %d (done=%v), want 5000", executed, done)
	}
	core.ResumeFrom(cycle)
	for done := false; !done; cycle++ {
		done, _ = core.Step(cycle, &rec)
	}

	total := core.Stats().Committed + executed
	if total != full.Committed {
		t.Fatalf("committed+fast-forwarded = %d, full-run committed = %d", total, full.Committed)
	}
}

// TestFastForwardWarmsCaches checks a fast-forwarded working set is
// resident afterwards: a detailed window resumed on it should not start
// cold.
func TestFastForwardWarmsCaches(t *testing.T) {
	p := loadProgram(8<<10, program.MemStride, 100_000)
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	ff := program.NewFastForward(p)

	core.ArchCheckpoint(0)
	if executed, done := core.FastForward(ff, 10_000); done || executed != 10_000 {
		t.Fatalf("FastForward executed %d (done=%v)", executed, done)
	}
	// The 8 KiB strided footprint cycles entirely through the L1D.
	for off := uint64(0); off < 8<<10; off += 64 {
		if !core.L1D().Contains((1 << 30) + off) {
			t.Fatalf("line at offset %#x not warmed into L1D", off)
		}
	}
	if core.L1D().Hits+core.L1D().Misses != 0 {
		t.Fatalf("fast-forward touched timed L1D stats: %d/%d", core.L1D().Hits, core.L1D().Misses)
	}
}

// TestFastForwardZeroAllocs pins the fast-forward inner loop's allocation
// behavior, in the same style as the steady-state Step guard: once the
// batch buffer and interpreter pools have settled, fast-forwarding must not
// allocate at all.
func TestFastForwardZeroAllocs(t *testing.T) {
	p := loadProgram(64<<10, program.MemStride, 1<<28)
	cfg := DefaultConfig()
	core := New(cfg, p, program.NewInterp(p, 1))
	core.MMU().PrefaultAll()
	ff := program.NewFastForward(p)

	core.ArchCheckpoint(0)
	if _, done := core.FastForward(ff, 50_000); done {
		t.Fatal("program finished during warmup; enlarge the loop")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, done := core.FastForward(ff, 10_000); done {
			t.Fatal("program finished during measurement; enlarge the loop")
		}
	})
	if allocs != 0 {
		t.Fatalf("FastForward allocated %.1f times per 10k steady-state instructions; want 0", allocs)
	}
}

// refFastForward is the per-instruction reference the block walker must
// match. It pulls every instruction through supplyNext (replay queue, then
// Interp.Next) and warms in the order of the batched fast-forward the
// walker replaced: fetch line, control flow, data, redirect, with TAGE
// warming decided once per 1024-instruction batch.
func refFastForward(c *Core, n uint64) (executed uint64, done bool) {
	c.quietUntil = 0
	tailStart := uint64(0)
	if n > ffTageWarmTail {
		tailStart = n - ffTageWarmTail
	}
	warmTage := false
	for ; executed < n; executed++ {
		if executed%1024 == 0 {
			warmTage = executed >= tailStart
		}
		d, ok := c.supplyNext()
		if !ok {
			return executed, true
		}
		pc := d.SI.PC
		if line := pc >> 6; line != c.ffLastLine {
			c.ffLastLine = line
			c.mmu.WarmFetch(pc)
			c.l1i.Warm(pc, false)
		}
		mi := &c.meta[d.SI.Index]
		switch mi.kind {
		case isa.KindBranch:
			if warmTage {
				c.tage.Warm(pc, d.Taken)
			}
			if d.Taken {
				c.btb.Warm(pc, d.NextPC)
			}
		case isa.KindJump:
			c.btb.Warm(pc, d.NextPC)
		case isa.KindCall:
			c.archRAS.Push(pc + isa.InstBytes)
			c.btb.Warm(pc, d.NextPC)
		case isa.KindRet:
			c.archRAS.Pop(d.NextPC)
		}
		if mi.flags&metaMem != 0 {
			c.mmu.WarmData(d.MemAddr)
			c.l1d.Warm(d.MemAddr, mi.kind == isa.KindStore || mi.kind == isa.KindAtomic)
		}
		if mi.flags&metaControlFlow != 0 && d.Taken {
			c.ffLastLine = ^uint64(0)
		}
	}
	return executed, false
}

// ffLeg is one step of a fast-forward equivalence scenario: detailed
// cycles to simulate (then ArchCheckpoint) before a fast-forward leg of n
// instructions.
type ffLeg struct {
	detailed uint64
	n        uint64
}

// ffPair drives two identically built cores through the same scenario,
// fast-forwarding one with the block walker and the other with
// refFastForward.
type ffPair struct {
	walk, ref     *Core
	ff            *program.FastForward
	cycle         uint64
	cpWalk, cpRef Checkpoint
}

// newFFPair builds the pair with the default core but an L2 and LLC an
// eighth and a sixteenth of their default size: the walker does not depend
// on the sizes, smaller caches evict more often, and comparing the warmed
// state after every leg stays cheap enough for the race detector.
func newFFPair(p *program.Program, seed uint64, prefault func(*Core)) *ffPair {
	cfg := DefaultConfig()
	cfg.Hierarchy.L2.SizeBytes /= 8
	cfg.Hierarchy.LLC.SizeBytes /= 16
	mk := func() *Core {
		c := New(cfg, p, program.NewInterp(p, seed))
		prefault(c)
		c.ArchCheckpoint(0)
		return c
	}
	return &ffPair{walk: mk(), ref: mk(), ff: program.NewFastForward(p)}
}

// run plays legs and checks after each that both cores hold the same
// warmed state, interpreter, supply state and leg result. It reports
// whether the program ended.
func (fp *ffPair) run(t *testing.T, label string, legs []ffLeg) bool {
	t.Helper()
	for i, leg := range legs {
		if leg.detailed > 0 {
			var rw, rr trace.Record
			fp.walk.ResumeFrom(fp.cycle)
			fp.ref.ResumeFrom(fp.cycle)
			for end := fp.cycle + leg.detailed; fp.cycle < end; fp.cycle++ {
				dw, qw := fp.walk.Step(fp.cycle, &rw)
				dr, qr := fp.ref.Step(fp.cycle, &rr)
				if dw != dr || qw != qr {
					t.Fatalf("%s leg %d: detailed cores disagree on completion at cycle %d", label, i, fp.cycle)
				}
				if dw {
					return true
				}
			}
			fp.walk.ArchCheckpoint(fp.cycle)
			fp.ref.ArchCheckpoint(fp.cycle)
		}
		ew, dw := fp.walk.FastForward(fp.ff, leg.n)
		er, dr := refFastForward(fp.ref, leg.n)
		if ew != er || dw != dr {
			t.Fatalf("%s leg %d (n=%d): walker executed %d done=%v, reference %d done=%v", label, i, leg.n, ew, dw, er, dr)
		}
		fp.check(t, fmt.Sprintf("%s leg %d (n=%d)", label, i, leg.n))
		if dw {
			return true
		}
	}
	return false
}

// check compares everything a fast-forward leg can change.
func (fp *ffPair) check(t *testing.T, label string) {
	t.Helper()
	a, b := fp.walk, fp.ref
	if !reflect.DeepEqual(a.stream, b.stream) {
		t.Fatalf("%s: interpreter state differs from the per-instruction reference", label)
	}
	if a.ffLastLine != b.ffLastLine || a.streamDone != b.streamDone ||
		a.la.valid != b.la.valid || len(a.pending)-a.pi != len(b.pending)-b.pi {
		t.Fatalf("%s: supply state differs: fetch line %#x/%#x, streamDone %v/%v", label,
			a.ffLastLine, b.ffLastLine, a.streamDone, b.streamDone)
	}
	a.CheckpointInto(&fp.cpWalk)
	b.CheckpointInto(&fp.cpRef)
	if !reflect.DeepEqual(fp.cpWalk, fp.cpRef) {
		t.Fatalf("%s: warmed state differs from the per-instruction reference", label)
	}
}

// ffScenario covers the leg shapes the walker must get right: empty and
// one-instruction legs, legs ending mid-block, legs either side of the
// 1024-instruction TAGE boundary, legs longer than ffTageWarmTail, legs
// after ArchCheckpoint drains a live pipeline, and a leg past the end of
// the program.
var ffScenario = []ffLeg{
	{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 7},
	{400, 0}, {0, 1}, {300, 5},
	{0, 1023}, {0, 1025},
	{700, ffTageWarmTail + 1}, {0, ffTageWarmTail + 1025}, {0, ffTageWarmTail + 3000},
	{500, 1000}, {0, 100_003},
	{0, 1 << 40},
}

// TestFastForwardMatchesReferenceOnBenchmarks runs ffScenario on every
// benchmark at small scale, comparing the block walker with the
// per-instruction reference after each leg.
func TestFastForwardMatchesReferenceOnBenchmarks(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workload.LoadScaled(name, 1, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			fp := newFFPair(w.Prog, w.Seed, func(c *Core) {
				for _, reg := range w.Prefault {
					c.MMU().PrefaultRange(reg.Base, reg.Size)
				}
			})
			if !fp.run(t, name, ffScenario) {
				t.Fatal("the leg past the end of the program did not end it")
			}
		})
	}
}

// ffFuzzLegs are the leg lengths a FuzzFastForward plan byte selects from.
var ffFuzzLegs = [...]uint64{
	0, 1, 2, 3, 5, 7, 11, 64, 1023, 1024, 1025, 4096, 10_007,
	ffTageWarmTail - 1, ffTageWarmTail, ffTageWarmTail + 1,
	ffTageWarmTail + 1023, ffTageWarmTail + 1024, ffTageWarmTail + 1025,
	65_536, 100_003, 1 << 40,
}

// FuzzFastForward checks the block walker against the per-instruction
// reference on random programs (even seeds) and benchmarks at small scale
// (odd seeds). Each plan byte is one leg: its low five bits pick a length
// from ffFuzzLegs, its top three bits how many hundred detailed cycles run
// (then ArchCheckpoint) before it.
func FuzzFastForward(f *testing.F) {
	f.Add(uint64(2), []byte{1, 2, 0x83, 8, 10, 21})
	f.Add(uint64(4), []byte{0x40, 3, 0x20, 7, 1})
	f.Add(uint64(1), []byte{1, 0x43, 16, 0x21, 17, 18, 20})
	f.Add(uint64(3), []byte{0x60, 15, 0x81, 12, 21})
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte) {
		if len(plan) > 12 {
			plan = plan[:12]
		}
		legs := make([]ffLeg, len(plan))
		for i, b := range plan {
			legs[i] = ffLeg{detailed: uint64(b>>5) * 100, n: ffFuzzLegs[int(b&31)%len(ffFuzzLegs)]}
		}
		var fp *ffPair
		if seed%2 == 0 {
			fp = newFFPair(randomProgram(seed), seed, func(c *Core) {
				if seed%4 == 0 {
					c.MMU().PrefaultAll()
				}
			})
		} else {
			names := workload.Names()
			w, err := workload.LoadScaled(names[seed/2%uint64(len(names))], seed, 150_000)
			if err != nil {
				t.Fatal(err)
			}
			fp = newFFPair(w.Prog, w.Seed, func(c *Core) {
				for _, reg := range w.Prefault {
					c.MMU().PrefaultRange(reg.Base, reg.Size)
				}
			})
		}
		fp.run(t, fmt.Sprintf("seed %d", seed), legs)
	})
}

// BenchmarkFastForward measures the functional fast-forward rate: ns/op
// and ns/inst are nanoseconds per fast-forwarded instruction. "loop" is a
// one-block strided-load loop; mcf and x264 run the benchmarks (seed 1)
// whole in 100 000-instruction legs, each after an ArchCheckpoint, as the
// benchmark's cpu.ff_ns_per_inst probe does.
func BenchmarkFastForward(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		p := loadProgram(1<<20, program.MemStride, 1<<30)
		core := New(DefaultConfig(), p, program.NewInterp(p, 1))
		core.MMU().PrefaultAll()
		ff := program.NewFastForward(p)
		core.ArchCheckpoint(0)
		b.ResetTimer()
		executed, done := core.FastForward(ff, uint64(b.N))
		if done || executed != uint64(b.N) {
			b.Fatalf("program exhausted after %d instructions", executed)
		}
		reportFFRate(b, executed)
	})
	for _, name := range []string{"mcf", "x264"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.LoadScaled(name, 1, 2_000_000)
			if err != nil {
				b.Fatal(err)
			}
			ff := program.NewFastForward(w.Prog)
			fresh := func() *Core {
				c := New(DefaultConfig(), w.Prog, w.Stream())
				for _, reg := range w.Prefault {
					c.MMU().PrefaultRange(reg.Base, reg.Size)
				}
				return c
			}
			core := fresh()
			b.ResetTimer()
			executed := uint64(0)
			for executed < uint64(b.N) {
				core.ArchCheckpoint(0)
				k, done := core.FastForward(ff, min(100_000, uint64(b.N)-executed))
				executed += k
				if done {
					b.StopTimer()
					core = fresh()
					b.StartTimer()
				}
			}
			reportFFRate(b, executed)
		})
	}
}

func reportFFRate(b *testing.B, executed uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executed), "ns/inst")
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "insts/s")
}
