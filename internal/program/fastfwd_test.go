package program

import (
	"math"
	"reflect"
	"testing"

	"github.com/tipprof/tip/internal/isa"
)

// buildCalls builds a program exercising every terminator and address
// pattern: a called leaf with a random branch, a fall-through block, a
// chase load, a pattern branch and an outer loop.
func buildCalls(iters int) *Program {
	b := NewBuilder("calls")
	leaf := b.Func("leaf")
	l0 := leaf.NewBlock()
	l0.Load(isa.IntReg(1), isa.IntReg(2), MemBehavior{Base: 1 << 30, Size: 3 << 20, Pattern: MemChase})
	l0.Branch(2, BranchBehavior{Mode: BrRandom, P: 0.4}, isa.IntReg(1))
	l1 := leaf.NewBlock()
	l1.Store(isa.IntReg(1), isa.IntReg(2), MemBehavior{Base: 1 << 31, Size: 1 << 12, Pattern: MemStride, Stride: 64})
	l2 := leaf.NewBlock()
	l2.Ret()

	main := b.Func("main")
	m0 := main.NewBlock()
	m0.Op(isa.KindIntALU, isa.IntReg(3))
	m0.Load(isa.IntReg(4), isa.IntReg(2), MemBehavior{Base: 1 << 32, Size: 1 << 20, Pattern: MemRandom})
	m0.Call(leaf)
	m1 := main.NewBlock() // falls through
	m1.Op(isa.KindIntALU, isa.IntReg(5))
	m1.Op(isa.KindIntALU, isa.IntReg(6))
	m2 := main.NewBlock()
	m2.Op(isa.KindIntALU, isa.IntReg(7))
	m2.Branch(4, BranchBehavior{Mode: BrPattern, Pattern: []bool{true, false, false}}, isa.IntReg(7))
	m3 := main.NewBlock()
	m3.Jump(4)
	m4 := main.NewBlock()
	m4.LoopBack(0, iters)
	m5 := main.NewBlock()
	m5.Ret()
	b.SetEntry(main)
	return b.MustBuild(0)
}

// TestFastForwardStepMatchesNext checks that block steps of every size
// deliver what Next delivers: the same instructions, the same effective
// addresses, the terminator's outcome, and the same interpreter state
// after each step and at the end of the stream.
func TestFastForwardStepMatchesNext(t *testing.T) {
	for _, prog := range []*Program{buildCalls(300), buildStochastic(2_000)} {
		for _, sizes := range [][]uint64{{1}, {2}, {1, 3, 2, 100}, {1 << 62}} {
			stepped, ref := NewInterp(prog, 9), NewInterp(prog, 9)
			ff := NewFastForward(prog)
			for k := 0; ; k++ {
				insts, addrs, taken, next := ff.Step(stepped, sizes[k%len(sizes)])
				if len(insts) == 0 {
					if _, ok := ref.Next(); ok {
						t.Fatalf("%s %v: Step ended the stream at seq %d, Next did not", prog.Name, sizes, stepped.Seq())
					}
					break
				}
				for i, in := range insts {
					d, ok := ref.Next()
					if !ok {
						t.Fatalf("%s %v: Step ran past the end of the stream", prog.Name, sizes)
					}
					wantTaken, wantNext := false, next
					if i < len(insts)-1 {
						wantNext = insts[i+1].PC
					} else {
						wantTaken = taken
					}
					if d.SI != in || d.Taken != wantTaken || d.NextPC != wantNext ||
						(in.Mem != nil && d.MemAddr != addrs[i]) {
						t.Fatalf("%s %v: seq %d: Step gave %#x taken=%v next=%#x addr=%#x, Next gave %#x taken=%v next=%#x addr=%#x",
							prog.Name, sizes, d.Seq, in.PC, wantTaken, wantNext, addrs[i], d.SI.PC, d.Taken, d.NextPC, d.MemAddr)
					}
				}
				if !reflect.DeepEqual(stepped, ref) {
					t.Fatalf("%s %v: interpreter state diverged at seq %d", prog.Name, sizes, ref.Seq())
				}
			}
			if !stepped.Done() || !reflect.DeepEqual(stepped, ref) {
				t.Fatalf("%s %v: final interpreter state differs", prog.Name, sizes)
			}
		}
	}
}

// TestPow2Floor compares pow2Floor with the bit loop it replaced.
func TestPow2Floor(t *testing.T) {
	loop := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		p := uint64(1)
		for p<<1 != 0 && p<<1 <= v {
			p <<= 1
		}
		return p
	}
	vs := []uint64{0, 1, 1<<63 + 1, math.MaxUint64}
	for s := 1; s < 64; s++ {
		vs = append(vs, 1<<s-1, 1<<s, 1<<s+1)
	}
	for _, v := range vs {
		if got, want := pow2Floor(v), loop(v); got != want {
			t.Fatalf("pow2Floor(%#x) = %#x, want %#x", v, got, want)
		}
	}
}
