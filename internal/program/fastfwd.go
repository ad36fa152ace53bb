package program

// FastForward steps an Interp one basic block at a time for functional
// fast-forward. A step hands back the executed instructions as a view of
// the block itself, with each memory instruction's effective address in a
// parallel scratch slice, so no DynInst is built: the interpreter state
// advances exactly as the same number of Next calls would advance it. It
// models no time; the caller decides how many cycles the skipped
// instructions represent.
//
// The scratch is sized to the program's longest block up front, so steps
// allocate nothing (guarded by TestFastForwardZeroAllocs).
type FastForward struct {
	addrs []uint64
}

// NewFastForward builds a block stepper for interpreters of p.
func NewFastForward(p *Program) *FastForward {
	longest := 0
	for _, b := range p.blocks {
		longest = max(longest, len(b.Insts))
	}
	return &FastForward{addrs: make([]uint64, longest)}
}

// Step executes up to max (at least 1) instructions of it, stopping after
// the last instruction of the current basic block. It returns the executed
// instructions in program order, and addrs, whose element i is insts[i]'s
// effective address when insts[i] is a memory instruction. taken and next
// describe the last instruction as DynInst.Taken and DynInst.NextPC would;
// every earlier one falls through to its successor in the block. insts is
// empty once the stream has ended. Both slices are valid until the next
// Step; insts aliases the program and must not be modified.
func (f *FastForward) Step(it *Interp, max uint64) (insts []*Inst, addrs []uint64, taken bool, next uint64) {
	if it.done {
		return nil, nil, false, 0
	}
	top := &it.stack[len(it.stack)-1]
	blk := top.fn.Blocks[top.block]
	insts = blk.Insts[top.inst:]
	whole := uint64(len(insts)) <= max
	if !whole {
		insts = insts[:max]
	}
	for i, in := range insts {
		if in.Mem != nil {
			f.addrs[i] = it.memAddr(in)
		}
	}
	it.seq += uint64(len(insts))
	if !whole {
		top.inst += len(insts)
		return insts, f.addrs, false, blk.Insts[top.inst].PC
	}
	taken, next = it.leave(top, blk)
	return insts, f.addrs, taken, next
}
