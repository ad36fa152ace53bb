package program

import (
	"fmt"
	"math/bits"

	"github.com/tipprof/tip/internal/xrand"
)

// DynInst is one dynamic (executed) instruction delivered by an Interp.
// It is a value type: the core copies it into pipeline structures.
type DynInst struct {
	// Seq is the dynamic sequence number, starting at 0.
	Seq uint64
	// SI is the static instruction.
	SI *Inst
	// Taken is the branch outcome (conditional branches only).
	Taken bool
	// NextPC is the address of the dynamically next instruction (the
	// correct-path successor); used to detect front-end mispredictions.
	NextPC uint64
	// MemAddr is the effective address for memory operations.
	MemAddr uint64
}

// PC returns the instruction address.
func (d *DynInst) PC() uint64 { return d.SI.PC }

// frame is one call-stack entry of the interpreter.
type frame struct {
	fn    *Function
	block int
	inst  int
	loops []int32 // per-block loop iteration counters
}

// MaxCallDepth bounds interpreter recursion so a miswired workload fails
// loudly instead of growing the stack forever.
const MaxCallDepth = 512

// Interp walks a program's CFG and produces its dynamic instruction stream.
// All stochastic choices draw from a private RNG, so the stream for a given
// (program, seed) pair is identical on every run — which is what lets every
// profiler observe the exact same execution.
type Interp struct {
	prog *Program
	rng  *xrand.Source

	stack []frame
	seq   uint64
	done  bool

	// Per-static-instruction dynamic state, indexed by Inst.Index.
	memCur []uint64 // current offset within the region
	brPos  []int32  // BrPattern position

	loopPool map[*Function][][]int32
}

// NewInterp returns an interpreter that executes the whole program from its
// entry function.
func NewInterp(p *Program, seed uint64) *Interp {
	return newInterp(p, p.Entry(), seed)
}

// NewInterpFunc returns an interpreter that executes just fn (used for the
// synthetic OS fault-handler stream).
func NewInterpFunc(p *Program, fn *Function, seed uint64) *Interp {
	return newInterp(p, fn, seed)
}

func newInterp(p *Program, fn *Function, seed uint64) *Interp {
	it := &Interp{
		prog:     p,
		rng:      xrand.New(seed),
		memCur:   make([]uint64, p.NumInsts()),
		brPos:    make([]int32, p.NumInsts()),
		loopPool: make(map[*Function][][]int32),
	}
	it.push(fn)
	// Seed stride cursors at zero and chase cursors at a random block so
	// chase streams differ across instructions.
	return it
}

func (it *Interp) push(fn *Function) {
	var loops []int32
	if pool := it.loopPool[fn]; len(pool) > 0 {
		loops = pool[len(pool)-1]
		it.loopPool[fn] = pool[:len(pool)-1]
		for i := range loops {
			loops[i] = 0
		}
	} else {
		loops = make([]int32, len(fn.Blocks))
	}
	it.stack = append(it.stack, frame{fn: fn, loops: loops})
}

func (it *Interp) pop() {
	top := &it.stack[len(it.stack)-1]
	it.loopPool[top.fn] = append(it.loopPool[top.fn], top.loops)
	it.stack = it.stack[:len(it.stack)-1]
}

// Done reports whether the stream has ended.
func (it *Interp) Done() bool { return it.done }

// Seq returns the number of instructions delivered so far.
func (it *Interp) Seq() uint64 { return it.seq }

// Next delivers the next dynamic instruction. ok is false once the entry
// function has returned.
func (it *Interp) Next() (d DynInst, ok bool) {
	if it.done {
		return DynInst{}, false
	}
	top := &it.stack[len(it.stack)-1]
	blk := top.fn.Blocks[top.block]
	in := blk.Insts[top.inst]

	d.Seq = it.seq
	it.seq++
	d.SI = in

	if in.Mem != nil {
		d.MemAddr = it.memAddr(in)
	}

	if top.inst < len(blk.Insts)-1 {
		top.inst++
		d.NextPC = blk.Insts[top.inst].PC
		return d, true
	}
	d.Taken, d.NextPC = it.leave(top, blk)
	return d, true
}

// leave moves past blk, the block of frame top whose last instruction was
// just delivered, resolving its terminator. It returns that instruction's
// Taken and NextPC.
func (it *Interp) leave(top *frame, blk *Block) (taken bool, next uint64) {
	top.inst = 0
	switch blk.Term {
	case TermFall:
		top.block++
		if top.block >= len(top.fn.Blocks) {
			panic(fmt.Sprintf("program %s: fell off end of %s", it.prog.Name, top.fn.Name))
		}
	case TermBranch:
		taken = it.branchTaken(blk.Insts[len(blk.Insts)-1], top, blk)
		if taken {
			top.block = blk.Target
		} else {
			top.block++
		}
	case TermJump:
		top.block = blk.Target
		taken = true
	case TermCall:
		if len(it.stack) >= MaxCallDepth {
			panic(fmt.Sprintf("program %s: call depth exceeds %d in %s", it.prog.Name, MaxCallDepth, top.fn.Name))
		}
		// Resume point: next block of the caller.
		top.block++
		it.push(blk.Callee)
		taken = true
	case TermRet:
		it.pop()
		taken = true
		if len(it.stack) == 0 {
			it.done = true
			return taken, 0
		}
	}
	return taken, it.currentPC()
}

// CopyFrom overwrites it's position — call stack, RNG, sequence number, and
// per-instruction dynamic state — with src's, making it deliver the exact
// instruction stream src would from this point. It works on a zero-value
// Interp (pooled checkpoint containers) and reuses existing slice capacity,
// so steady-state copies between same-program interpreters do not allocate.
func (it *Interp) CopyFrom(src *Interp) {
	it.prog = src.prog
	if it.rng == nil {
		it.rng = &xrand.Source{}
	}
	*it.rng = *src.rng
	// Deep-copy the call stack, reusing each destination frame's loops
	// slice where its capacity suffices. Reading the old loops slice before
	// overwriting frame i is safe: append below either reuses it.stack's
	// backing array (old[i] still live until assigned) or allocates afresh.
	old := it.stack
	it.stack = it.stack[:0]
	for i, f := range src.stack {
		var loops []int32
		if i < len(old) && cap(old[i].loops) >= len(f.loops) {
			loops = old[i].loops[:len(f.loops)]
		} else {
			loops = make([]int32, len(f.loops))
		}
		copy(loops, f.loops)
		it.stack = append(it.stack, frame{fn: f.fn, block: f.block, inst: f.inst, loops: loops})
	}
	it.seq = src.seq
	it.done = src.done
	it.memCur = append(it.memCur[:0], src.memCur...)
	it.brPos = append(it.brPos[:0], src.brPos...)
	if it.loopPool == nil {
		it.loopPool = make(map[*Function][][]int32)
	}
}

// Clone returns an independent interpreter at the same stream position.
func (it *Interp) Clone() *Interp {
	n := &Interp{}
	n.CopyFrom(it)
	return n
}

// currentPC returns the PC of the instruction the interpreter will deliver
// next.
func (it *Interp) currentPC() uint64 {
	top := &it.stack[len(it.stack)-1]
	return top.fn.Blocks[top.block].Insts[top.inst].PC
}

func (it *Interp) branchTaken(in *Inst, top *frame, blk *Block) bool {
	br := in.Br
	switch br.Mode {
	case BrRandom:
		return it.rng.Bool(br.P)
	case BrLoop:
		trip := int32(br.Trip)
		if trip < 1 {
			trip = 1
		}
		top.loops[blk.IndexInFunc]++
		if top.loops[blk.IndexInFunc] >= trip {
			top.loops[blk.IndexInFunc] = 0
			return false // loop exit: fall through
		}
		return true // back-edge taken
	case BrPattern:
		if len(br.Pattern) == 0 {
			return false
		}
		pos := it.brPos[in.Index]
		it.brPos[in.Index] = (pos + 1) % int32(len(br.Pattern))
		return br.Pattern[pos]
	}
	return false
}

// memAddr produces the next effective address for a memory instruction.
func (it *Interp) memAddr(in *Inst) uint64 {
	m := in.Mem
	cur := it.memCur[in.Index]
	var off uint64
	switch m.Pattern {
	case MemStride:
		off = cur
		next := cur + m.Stride
		if next >= m.Size {
			next = 0
		}
		it.memCur[in.Index] = next
	case MemRandom:
		// Cache-block aligned random offset.
		blocks := m.Size / 64
		if blocks == 0 {
			blocks = 1
		}
		off = it.rng.Uint64n(blocks) * 64
	case MemChase:
		// Deterministic pseudo-random walk over the region's cache
		// blocks using a full-period LCG (mod power-of-two block
		// count), giving dependent-chain random access.
		blocks := pow2Floor(m.Size / 64)
		if blocks == 0 {
			blocks = 1
		}
		next := (cur*6364136223846793005 + 1442695040888963407) & (blocks - 1)
		it.memCur[in.Index] = next
		off = next * 64
	}
	if off >= m.Size {
		off %= m.Size
	}
	return m.Base + off
}

// pow2Floor returns the largest power of two not above v, or 0 for v == 0.
func pow2Floor(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return 1 << (bits.Len64(v) - 1)
}

// Stream is the interface the core pulls dynamic instructions from.
type Stream interface {
	// Next returns the next instruction; ok is false at end of program.
	Next() (DynInst, bool)
}

var _ Stream = (*Interp)(nil)

// CappedStream wraps a Stream and ends it after max instructions; used to
// bound simulation length.
type CappedStream struct {
	S   Stream
	Max uint64
	n   uint64
}

// Next implements Stream.
func (c *CappedStream) Next() (DynInst, bool) {
	if c.n >= c.Max {
		return DynInst{}, false
	}
	d, ok := c.S.Next()
	if ok {
		c.n++
	}
	return d, ok
}

// Delivered returns how many instructions have been delivered.
func (c *CappedStream) Delivered() uint64 { return c.n }
