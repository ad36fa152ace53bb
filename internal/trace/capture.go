package trace

import (
	"errors"
	"io"
	"os"
)

// errCaptureSealed is the sticky error set when records arrive at a capture
// that has already been finished or closed. Appending to a sealed capture
// would silently corrupt it — most dangerously an adopted
// NewCaptureFromEncoded capture, whose buffer is the caller's persisted
// bytes — so the first late record poisons the capture instead.
var errCaptureSealed = errors.New("trace: record after capture Finish/Close")

// DefaultSpillBytes is the in-memory capture budget before a capture spills
// to a temporary file. Encoded records run ~10-25 bytes per cycle, so the
// default holds several-million-cycle benchmarks entirely in memory while
// bounding the footprint of a parallel suite evaluation.
const DefaultSpillBytes = 128 << 20

// blockBytes is the capacity of every in-memory capture block, and the write
// granularity once a capture has spilled.
const blockBytes = 1 << 20

// maxRecordBytes over-estimates the largest possible encoded record: cycle
// delta + header + MaxBanks full banks + exception/dispatch/in-flight blocks,
// all uvarints at their 10-byte worst case.
const maxRecordBytes = 512

// Capture records an encoded trace once and replays it any number of times.
// It is the capture half of the paper's capture-once, evaluate-many-configs
// methodology (§4): one cycle-level simulation streams its commit-stage
// records into the capture, and every profiler configuration afterwards is
// fed by decoding the capture — far cheaper than re-simulating the core.
//
// Records are encoded into a list of fixed blockBytes blocks: a record goes
// into the current block while at least maxRecordBytes remain, otherwise the
// block is sealed and a fresh one started, so no record straddles a block
// and no byte is ever copied to grow the trace. Once the in-memory size
// crosses the spill threshold the sealed blocks move to a temp file and the
// capture keeps one block, written out and reused each time it fills; the
// file is then the same sequence of whole blocks, and a reader reads it back
// one block at a time. Close releases the file; a purely in-memory capture
// needs no Close but tolerates one.
type Capture struct {
	limit      int
	blocks     [][]byte // sealed in-memory blocks, in stream order
	cur        []byte   // block records are appended to (pending chunk when spilled)
	memBytes   uint64   // encoded bytes in blocks
	f          *os.File
	fileBlocks []int  // length of each block written to f, in stream order
	fileBytes  uint64 // bytes already flushed to f
	st         codecState
	// rep is the last record's encoding in cur when OnRepeat may append it
	// again: that record committed nothing, left the PC, FID and InstIndex
	// bases as it found them and was one cycle after its predecessor,
	// so each repeat one cycle later encodes to the same bytes.
	rep   []byte
	count uint64
	// cycles is the Finish total from the captured run.
	cycles   uint64
	finished bool
	closed   bool
	err      error
}

// NewCapture returns an empty capture. It holds up to DefaultSpillBytes of
// encoded trace in memory, then spills to a temp file.
func NewCapture() *Capture { return newCapture(DefaultSpillBytes) }

// newCapture returns an empty capture that spills once its in-memory
// encoded size exceeds limit bytes.
func newCapture(limit int) *Capture { return &Capture{limit: limit} }

// OnCycle implements Consumer. Records arriving after Finish or Close set a
// sticky error rather than corrupting the sealed trace.
func (c *Capture) OnCycle(r *Record) {
	c.rep = nil
	if c.err != nil {
		return
	}
	if c.finished || c.closed {
		c.err = errCaptureSealed
		return
	}
	if cap(c.cur)-len(c.cur) < maxRecordBytes {
		if c.nextBlock(); c.err != nil {
			return
		}
	}
	base, start := c.st, len(c.cur)
	c.cur = appendRecord(c.cur, r, &c.st)
	if r.CommitCount == 0 && c.st.lastCycle == base.lastCycle+1 && c.st.lastPC == base.lastPC &&
		c.st.lastFID == base.lastFID && c.st.lastInst == base.lastInst {
		c.rep = c.cur[start:]
	}
	c.added()
}

// OnRepeat implements Repeater: while the previous record's encoding can
// stand for its repeat one cycle later, it is appended again without
// encoding, once per cycle of the run; any cycle it cannot stand for is
// encoded as OnCycle would, which may make it one that can.
func (c *Capture) OnRepeat(r *Record, n uint64) {
	for cyc := r.Cycle - n + 1; n > 0; cyc, n = cyc+1, n-1 {
		if c.rep == nil || c.err != nil || cyc != c.st.lastCycle+1 || cap(c.cur)-len(c.cur) < maxRecordBytes {
			c.encodeAt(r, cyc)
			continue
		}
		c.cur = append(c.cur, c.rep...)
		c.st.lastCycle++
		c.added()
	}
}

// encodeAt takes r at cycle cyc through OnCycle, on a copy when r is at
// another cycle: records are read-only to consumers.
func (c *Capture) encodeAt(r *Record, cyc uint64) {
	if r.Cycle == cyc {
		c.OnCycle(r)
		return
	}
	at := *r
	at.Cycle = cyc
	c.OnCycle(&at)
}

// added books a record appended to the current block, spilling once the
// memory budget is exceeded.
func (c *Capture) added() {
	c.count++
	if c.f == nil && c.memBytes+uint64(len(c.cur)) > uint64(c.limit) {
		c.spill()
	}
}

// nextBlock makes room for a record when the current block is full: it
// starts the first block (magic header included), seals the current block
// into the in-memory list, or — once spilled — writes it to the file and
// reuses it.
func (c *Capture) nextBlock() {
	switch {
	case c.cur == nil:
		c.cur = append(make([]byte, 0, blockBytes), formatMagic...)
	case c.f == nil:
		c.blocks = append(c.blocks, c.cur)
		c.memBytes += uint64(len(c.cur))
		c.cur = make([]byte, 0, blockBytes)
	default:
		c.flush()
	}
}

// spill moves the capture to a temp file once the memory budget is
// exceeded: the sealed blocks are written out in order and dropped, and the
// current block stays as the pending chunk.
func (c *Capture) spill() {
	f, err := os.CreateTemp("", "tip-capture-*.trc")
	if err != nil {
		c.err = err
		return
	}
	c.f = f
	for _, b := range c.blocks {
		if c.write(b); c.err != nil {
			break
		}
	}
	c.blocks, c.memBytes = nil, 0
}

// flush writes the pending chunk to the spill file and empties it for reuse.
func (c *Capture) flush() {
	c.write(c.cur)
	c.cur = c.cur[:0]
}

// write appends one whole block to the spill file and books its length.
func (c *Capture) write(b []byte) {
	n, err := c.f.Write(b)
	c.fileBytes += uint64(n)
	c.fileBlocks = append(c.fileBlocks, len(b))
	if err != nil {
		c.err = err
	}
}

// Finish implements Consumer; after Finish the capture is replayable. The
// current block joins the sealed list, or is flushed and released once
// spilled, so a finished spilled capture holds no trace bytes in memory.
func (c *Capture) Finish(totalCycles uint64) {
	if c.f == nil {
		if len(c.cur) > 0 {
			c.blocks = append(c.blocks, c.cur)
			c.memBytes += uint64(len(c.cur))
		}
	} else if c.err == nil && len(c.cur) > 0 {
		c.flush()
	}
	c.cur, c.rep = nil, nil
	c.cycles = totalCycles
	c.finished = true
}

// Err returns the first capture error (encoding or spill I/O), if any.
func (c *Capture) Err() error { return c.err }

// Cycles returns the captured run's total cycle count (valid after Finish).
func (c *Capture) Cycles() uint64 { return c.cycles }

// Records returns the number of captured per-cycle records.
func (c *Capture) Records() uint64 { return c.count }

// Bytes returns the encoded trace size in bytes (including the header).
func (c *Capture) Bytes() uint64 { return c.fileBytes + c.memBytes + uint64(len(c.cur)) }

// Spilled reports whether the capture overflowed to a temp file.
func (c *Capture) Spilled() bool { return c.f != nil }

// NewCaptureFromEncoded adopts an already-encoded trace stream — the bytes a
// prior capture's WriteTo produced — as a finished, replayable in-memory
// capture. records and cycles restore the Records/Cycles bookkeeping that is
// not re-derivable without a full decode; callers persisting captures (tipd's
// capture store) store them alongside the stream.
// The data slice is retained, not copied.
func NewCaptureFromEncoded(data []byte, records, cycles uint64) (*Capture, error) {
	if err := sniffMagic(data); err != nil {
		return nil, err
	}
	return &Capture{
		limit:    len(data),
		blocks:   [][]byte{data},
		memBytes: uint64(len(data)),
		count:    records,
		cycles:   cycles,
		finished: true,
	}, nil
}

// Replay streams the captured trace through consumers exactly as the live
// core did: one OnCycle per record, then Finish. It can be called any number
// of times; concurrent replays of the same capture are safe because each
// call reads through its own reader.
func (c *Capture) Replay(consumers ...Consumer) (cycles uint64, records uint64, err error) {
	if err := c.replayable(); err != nil {
		return 0, 0, err
	}
	return replay(c.reader(), consumers...)
}

// replayable rejects replay of an unfinished or failed capture.
func (c *Capture) replayable() error {
	if !c.finished {
		return errReplayUnfinished
	}
	if c.err != nil {
		return errCaptureFailed(c.err)
	}
	return nil
}

// reader returns a fresh reader over the finished capture: it walks the
// in-memory blocks, or reads the spill file's blocks one at a time into a
// buffer of its own, so any number of readers may decode the capture
// concurrently.
func (c *Capture) reader() *reader {
	if c.f != nil {
		return &reader{file: c.f, fileBlocks: c.fileBlocks}
	}
	return &reader{blocks: c.blocks}
}

// WriteTo copies the full encoded stream (header included) to w, leaving the
// capture replayable. It is how captures are persisted: the written bytes are
// exactly what Replay decodes, so a saved file can be compared or replayed
// byte-for-byte later.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	if err := c.replayable(); err != nil {
		return 0, err
	}
	var written int64
	if c.f != nil {
		n, err := io.Copy(w, io.NewSectionReader(c.f, 0, int64(c.fileBytes)))
		written += n
		if err != nil {
			return written, err
		}
	}
	for _, b := range c.blocks {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close releases the spill file, if any. The capture is not replayable
// afterwards.
func (c *Capture) Close() error {
	c.blocks, c.cur, c.rep, c.memBytes = nil, nil, nil, 0
	c.closed = true
	if c.f == nil {
		return nil
	}
	f := c.f
	c.f, c.fileBlocks = nil, nil
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}
