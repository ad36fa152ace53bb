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

// spillChunk is the write granularity once a capture has spilled: records
// accumulate in the buffer and are flushed to the file in chunks this size.
const spillChunk = 1 << 20

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
// Records are encoded straight into the in-memory buffer (same byte format
// as Writer); once the encoded size crosses the spill threshold the capture
// transparently moves to a temp file. Close releases the file; a purely
// in-memory capture needs no Close but tolerates one.
type Capture struct {
	limit     int
	buf       []byte // header + encoded records (pending chunk when spilled)
	f         *os.File
	fileBytes uint64 // bytes already flushed to f
	st        codecState
	count     uint64
	// cycles is the Finish total from the captured run.
	cycles   uint64
	finished bool
	closed   bool
	err      error
}

// NewCapture returns an empty capture encoding the v2 (TIPTRC2) layout.
// spillBytes bounds the in-memory encoded size before spilling to disk; 0
// selects DefaultSpillBytes.
func NewCapture(spillBytes int) *Capture {
	if spillBytes <= 0 {
		spillBytes = DefaultSpillBytes
	}
	return &Capture{limit: spillBytes}
}

// NewCaptureV3 returns an empty capture encoding the v3 (TIPTRC3) layout,
// which records each cycle's producing core ID — the format multi-programmed
// captures interleave several cores' records into.
func NewCaptureV3(spillBytes int) *Capture {
	c := NewCapture(spillBytes)
	c.st.v3 = true
	return c
}

// OnCycle implements Consumer. Records arriving after Finish or Close set a
// sticky error rather than corrupting the sealed trace.
func (c *Capture) OnCycle(r *Record) {
	if c.err != nil {
		return
	}
	if c.finished || c.closed {
		c.err = errCaptureSealed
		return
	}
	if c.count == 0 && c.f == nil && len(c.buf) == 0 {
		if c.st.v3 {
			c.buf = append(c.buf, formatMagicV3...)
		} else {
			c.buf = append(c.buf, formatMagic...)
		}
	}
	if cap(c.buf)-len(c.buf) < maxRecordBytes {
		c.grow()
	}
	c.buf = appendRecord(c.buf, r, &c.st)
	c.count++
	if c.f == nil {
		if len(c.buf) > c.limit {
			c.spill()
		}
	} else if len(c.buf) >= spillChunk {
		c.flush()
	}
}

// grow doubles the buffer's capacity (1 MiB floor, bounded by what the
// capture can ever hold before spilling). The runtime's growth policy for
// large slices is ~1.25x, which would re-copy a multi-megabyte trace several
// times over as it accumulates; explicit doubling keeps total copying linear
// in the final size.
func (c *Capture) grow() {
	bound := c.limit + maxRecordBytes
	if c.f != nil {
		bound = spillChunk + maxRecordBytes
	}
	newCap := 2 * cap(c.buf)
	if newCap < 1<<20 {
		newCap = 1 << 20
	}
	if newCap > bound {
		newCap = bound
	}
	if newCap <= cap(c.buf) {
		return // bound reached; let append grow the tail if it must
	}
	nb := make([]byte, len(c.buf), newCap)
	copy(nb, c.buf)
	c.buf = nb
}

// spill moves the capture to a temp file once the memory budget is exceeded.
func (c *Capture) spill() {
	f, err := os.CreateTemp("", "tip-capture-*.trc")
	if err != nil {
		c.err = err
		return
	}
	c.f = f
	c.flush()
}

// flush writes the buffered chunk to the spill file.
func (c *Capture) flush() {
	n, err := c.f.Write(c.buf)
	c.fileBytes += uint64(n)
	c.buf = c.buf[:0]
	if err != nil {
		c.err = err
	}
}

// Finish implements Consumer; after Finish the capture is replayable.
func (c *Capture) Finish(totalCycles uint64) {
	if c.f != nil && c.err == nil && len(c.buf) > 0 {
		c.flush()
	}
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
func (c *Capture) Bytes() uint64 { return c.fileBytes + uint64(len(c.buf)) }

// Spilled reports whether the capture overflowed to a temp file.
func (c *Capture) Spilled() bool { return c.f != nil }

// NewCaptureFromEncoded adopts an already-encoded trace stream — the bytes a
// prior capture's WriteTo produced — as a finished, replayable in-memory
// capture. records and cycles restore the Records/Cycles bookkeeping that is
// not re-derivable without a full decode; callers persisting captures (tipd's
// capture store) store them alongside the stream.
// The data slice is retained, not copied.
func NewCaptureFromEncoded(data []byte, records, cycles uint64) (*Capture, error) {
	v3, err := sniffMagic(data)
	if err != nil {
		return nil, err
	}
	return &Capture{
		limit:    len(data),
		buf:      data,
		count:    records,
		cycles:   cycles,
		st:       codecState{v3: v3},
		finished: true,
	}, nil
}

// Replay streams the captured trace through consumers exactly as the live
// core did: one OnCycle per record, then Finish. It can be called any number
// of times; concurrent replays of the same capture are safe because each
// call reads through its own Reader.
func (c *Capture) Replay(consumers ...Consumer) (cycles uint64, records uint64, err error) {
	if err := c.replayable(); err != nil {
		return 0, 0, err
	}
	return Replay(c.reader(), consumers...)
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

// reader returns a fresh Reader over the finished capture: a window over the
// in-memory buffer, or a refilling one over its own section of the spill
// file, so any number of readers may decode the capture concurrently.
func (c *Capture) reader() *Reader {
	if c.f == nil {
		return newSliceReader(c.buf)
	}
	return NewReader(io.NewSectionReader(c.f, 0, int64(c.fileBytes)))
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
	n, err := w.Write(c.buf)
	return written + int64(n), err
}

// Close releases the spill file, if any. The capture is not replayable
// afterwards.
func (c *Capture) Close() error {
	c.buf = nil
	c.closed = true
	if c.f == nil {
		return nil
	}
	f := c.f
	c.f = nil
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}
