package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The binary trace format is a sequence of records, each:
//
//	cycle       uvarint (delta from previous record)
//	flags       byte    (bit0 robEmpty, bit1 exceptionRaised, bit2 dispatchValid, bit3 anyInFlight)
//	numBanks    byte
//	headBank    byte
//	commitCount byte
//	per bank: flags byte (valid/committing/mispredicted/flush/exception), then
//	          pc, fid, instIndex (delta-encoded, see below) if valid
//	optional exception block, dispatch block, youngestFID
//
// PC, FID and InstIndex fields are stored as zigzag uvarint deltas against
// the previous value of the same kind anywhere in the stream (codecState).
// Commit streams are highly local — consecutive banks hold consecutive FIDs
// and instruction indices, and PCs mostly advance by one instruction — so
// the deltas almost always fit one byte where the absolute values need three
// or four. That roughly halves both the trace size and the varint work on
// the capture/replay hot path.
//
// The format exists so traces can be captured once and replayed against new
// profiler models (the paper ran up to 19 profiler configs per simulation).
// A multi-programmed run writes one such trace per core, as each core's own
// TIP unit would (§3.2); nothing in a record names its core.
const formatMagic = "TIPTRC2\n"

// codecState is the cross-record prediction context shared by the encoder
// and decoder. Both sides start from the zero state and advance it field by
// field in the same order, so the deltas are self-describing.
type codecState struct {
	lastCycle uint64
	lastPC    uint64
	lastFID   uint64
	lastInst  int64
}

// sniffMagic validates an encoded trace's header; it is the front door of
// reader.next and NewCaptureFromEncoded.
func sniffMagic(data []byte) error {
	if len(data) >= len(formatMagic) && string(data[:len(formatMagic)]) == formatMagic {
		return nil
	}
	n := len(data)
	if n > len(formatMagic) {
		n = len(formatMagic)
	}
	return badMagic(data[:n])
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint writes v at b[n] and returns the position after it. The caller
// guarantees capacity (appendRecord reserves maxRecordBytes up front); the
// first loop test falls straight through for the one-byte deltas that
// dominate a trace.
func putUvarint(b []byte, n int, v uint64) int {
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		n++
		v >>= 7
	}
	b[n] = byte(v)
	return n + 1
}

func (st *codecState) putPC(b []byte, n int, pc uint64) int {
	n = putUvarint(b, n, zigzag(int64(pc)-int64(st.lastPC)))
	st.lastPC = pc
	return n
}

func (st *codecState) putFID(b []byte, n int, fid uint64) int {
	n = putUvarint(b, n, zigzag(int64(fid)-int64(st.lastFID)))
	st.lastFID = fid
	return n
}

func (st *codecState) putInst(b []byte, n int, idx int32) int {
	n = putUvarint(b, n, zigzag(int64(idx)-st.lastInst))
	st.lastInst = int64(idx)
	return n
}

// appendRecord encodes r onto buf and returns the extended slice, advancing
// the codec state. It is the one record encoder; Capture calls it.
//
// The caller reserves maxRecordBytes of spare capacity in buf (Capture
// starts a fresh block before a record could overrun its current one), and
// the record is encoded with indexed writes into the slice. The previous
// append-per-field form paid a capacity check (and the append call
// overhead) per byte; this is the hottest trace-side frame of a capture, so
// those per-field checks showed up directly in the profile.
func appendRecord(buf []byte, r *Record, st *codecState) []byte {
	b := buf[:cap(buf)]
	n := len(buf)
	n = putUvarint(b, n, r.Cycle-st.lastCycle)
	st.lastCycle = r.Cycle
	var flags byte
	if r.ROBEmpty {
		flags |= 1
	}
	if r.ExceptionRaised {
		flags |= 2
	}
	if r.DispatchValid {
		flags |= 4
	}
	if r.AnyInFlight {
		flags |= 8
	}
	b[n] = flags
	b[n+1] = byte(r.NumBanks)
	b[n+2] = r.HeadBank
	b[n+3] = r.CommitCount
	n += 4
	for i := 0; i < r.NumBanks; i++ {
		bk := &r.Banks[i]
		var bf byte
		if bk.Valid {
			bf |= 1
		}
		if bk.Committing {
			bf |= 2
		}
		if bk.Mispredicted {
			bf |= 4
		}
		if bk.Flush {
			bf |= 8
		}
		if bk.Exception {
			bf |= 16
		}
		b[n] = bf
		n++
		if bk.Valid {
			n = st.putPC(b, n, bk.PC)
			n = st.putFID(b, n, bk.FID)
			n = st.putInst(b, n, bk.InstIndex)
		}
	}
	if r.ExceptionRaised {
		n = st.putPC(b, n, r.ExceptionPC)
		n = st.putFID(b, n, r.ExceptionFID)
		n = st.putInst(b, n, r.ExceptionInstIndex)
	}
	if r.DispatchValid {
		n = st.putPC(b, n, r.DispatchPC)
		n = st.putFID(b, n, r.DispatchFID)
		n = st.putInst(b, n, r.DispatchInstIndex)
	}
	if r.AnyInFlight {
		n = st.putFID(b, n, r.YoungestFID)
	}
	return buf[:n]
}

// normalizeRecord copies src into dst exactly as an encode→decode round
// trip through the codec would: unconditional fields are copied, every
// flag-guarded payload field is copied when its guard is set and zeroed
// when it is not, and banks past NumBanks are zeroed. The producing core
// reuses one Record and deliberately leaves unguarded payload fields stale
// (see Record.Reset); a capture launders that staleness through
// appendRecord/decodeRecord, and the streaming direct path must launder it
// the same way so streamed and captured replays observe bit-identical
// records. TestNormalizeRecordMatchesCodec pins the equivalence against
// the real codec on fuzzed records.
func normalizeRecord(dst, src *Record) {
	dst.Cycle = src.Cycle
	dst.ROBEmpty = src.ROBEmpty
	dst.ExceptionRaised = src.ExceptionRaised
	dst.DispatchValid = src.DispatchValid
	dst.AnyInFlight = src.AnyInFlight
	n := src.NumBanks
	if n > MaxBanks {
		n = MaxBanks
	}
	dst.NumBanks = n
	dst.HeadBank = src.HeadBank
	dst.CommitCount = src.CommitCount
	for i := 0; i < n; i++ {
		sb, db := &src.Banks[i], &dst.Banks[i]
		db.Valid = sb.Valid
		db.Committing = sb.Committing
		db.Mispredicted = sb.Mispredicted
		db.Flush = sb.Flush
		db.Exception = sb.Exception
		if sb.Valid {
			db.PC = sb.PC
			db.FID = sb.FID
			db.InstIndex = sb.InstIndex
		} else {
			db.PC = 0
			db.FID = 0
			db.InstIndex = 0
		}
	}
	for i := n; i < MaxBanks; i++ {
		dst.Banks[i] = BankEntry{}
	}
	if src.ExceptionRaised {
		dst.ExceptionPC = src.ExceptionPC
		dst.ExceptionFID = src.ExceptionFID
		dst.ExceptionInstIndex = src.ExceptionInstIndex
	} else {
		dst.ExceptionPC = 0
		dst.ExceptionFID = 0
		dst.ExceptionInstIndex = 0
	}
	if src.DispatchValid {
		dst.DispatchPC = src.DispatchPC
		dst.DispatchFID = src.DispatchFID
		dst.DispatchInstIndex = src.DispatchInstIndex
	} else {
		dst.DispatchPC = 0
		dst.DispatchFID = 0
		dst.DispatchInstIndex = 0
	}
	if src.AnyInFlight {
		dst.YoungestFID = src.YoungestFID
	} else {
		dst.YoungestFID = 0
	}
}

// reader decodes a stored trace. It walks a sequence of blocks that each end
// on a record boundary, decoding each with decodeRecord and moving to the
// next once it is used up: a whole slice is one block, an in-memory
// Capture's blocks are walked in place, and a spilled Capture's blocks are
// read from its file one at a time into the reader's own buffer. So every
// record decodeRecord sees lies wholly inside the block (or the trace
// really is truncated there).
//
// A stalled core emits the same commit-stage record cycle after cycle, and
// across the benchmark suite about two records in three repeat the one
// before them byte for byte. reader.next serves such a repeat without decoding it
// (see rep), and run takes a whole stretch of them at once.
type reader struct {
	buf    []byte   // block being decoded
	blocks [][]byte // in-memory blocks after buf, in stream order
	pos    int      // next undecoded byte in buf
	hdr    bool     // magic validated
	st     codecState

	// A spilled capture's blocks are read from file: fileBlocks holds the
	// lengths of those after buf and off the offset of the first, and each
	// is read into spillBuf. fail is the sticky read error.
	file       io.ReaderAt
	fileBlocks []int
	off        int64
	spillBuf   []byte
	fail       error

	// rep is the span in buf of the last record decodeRecord filled into
	// repRec, kept only when that record committed nothing and left the
	// PC, FID and InstIndex bases as it found them; repDelta is its
	// cycle delta. Identical bytes that follow it then decode, under the
	// same bases, to the same record but for the cycle, so reader.next advances
	// the cycle base and rec.Cycle and skips decodeRecord. A committing
	// record is never kept: its FIDs advance, so it seldom repeats, and
	// committing records are the ones internal/check's corruptor test
	// rewrites. A block switch drops rep. repeats counts the records
	// served this way.
	rep      []byte
	repDelta uint64
	repRec   *Record
	repeats  uint64
}

// newSliceReader returns a reader over an in-memory encoded trace, magic
// header included. The slice is read, never copied or modified.
func newSliceReader(data []byte) *reader {
	return &reader{buf: data}
}

// nextBlock moves the reader to the next block: the next in-memory one, or
// the next block of the spill file, read into spillBuf. It returns io.EOF
// after the last block. A read error sticks: every later call returns it.
func (r *reader) nextBlock() error {
	r.rep = nil
	switch {
	case r.fail != nil:
		return r.fail
	case len(r.blocks) > 0:
		r.buf, r.blocks = r.blocks[0], r.blocks[1:]
	case len(r.fileBlocks) > 0:
		if r.spillBuf == nil {
			r.spillBuf = make([]byte, blockBytes)
		}
		n := r.fileBlocks[0]
		b := r.spillBuf[:n]
		if got, err := r.file.ReadAt(b, r.off); got < n {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			r.fail = fmt.Errorf("trace: read spilled capture: %w", err)
			return r.fail
		}
		r.buf, r.fileBlocks, r.off = b, r.fileBlocks[1:], r.off+int64(n)
	default:
		return io.EOF
	}
	r.pos = 0
	return nil
}

// next decodes the next record into rec, which must be zero or the record a
// previous call filled, unmodified since (records are read-only to
// consumers; see Consumer). It returns io.EOF at the end of the trace.
//
// When rec is the record the previous full decode filled, and the next
// bytes repeat that record under unchanged delta bases, it only sets
// rec.Cycle: every other field already holds what decoding would write.
// It serves one record per call; a replay shard whose consumer takes runs
// first asks run for the stretch of repeats that follows.
func (r *reader) next(rec *Record) error {
	for r.pos >= len(r.buf) {
		if err := r.nextBlock(); err != nil {
			return err
		}
	}
	if rep := r.rep; rep != nil && rec == r.repRec && len(r.buf)-r.pos >= len(rep) &&
		bytes.Equal(r.buf[r.pos:r.pos+len(rep)], rep) {
		r.st.lastCycle += r.repDelta
		rec.Cycle = r.st.lastCycle
		r.pos += len(rep)
		r.repeats++
		return nil
	}
	if !r.hdr {
		if err := sniffMagic(r.buf[r.pos:]); err != nil {
			return err
		}
		r.hdr = true
		r.pos += len(formatMagic)
		return r.next(rec)
	}
	base := r.st
	pos, err := decodeRecord(r.buf, r.pos, &r.st, rec)
	if err != nil {
		return err
	}
	r.rep = nil
	if rec.CommitCount == 0 && r.st.lastPC == base.lastPC && r.st.lastFID == base.lastFID &&
		r.st.lastInst == base.lastInst {
		r.rep, r.repDelta, r.repRec = r.buf[r.pos:pos], r.st.lastCycle-base.lastCycle, rec
	}
	r.pos = pos
	return nil
}

// run consumes the stretch of repeats at the read position: up to max
// spans byte-identical to rep, when rep's cycle delta is 1 and rec is the
// record it was decoded into. It advances the cycle base and rec.Cycle past
// them and returns their count, so rec then stands for a run of that many
// cycles ending at rec.Cycle (a Repeater's OnRepeat). It counts only spans
// wholly inside the current block and never moves to the next or decodes;
// it returns 0, consuming nothing, when no such span follows, and r.next
// takes the record.
func (r *reader) run(rec *Record, max int) int {
	rep := r.rep
	if rep == nil || r.repDelta != 1 || rec != r.repRec {
		return 0
	}
	pos, n := r.pos, 0
	for n < max && len(r.buf)-pos >= len(rep) && bytes.Equal(r.buf[pos:pos+len(rep)], rep) {
		pos += len(rep)
		n++
	}
	if n > 0 {
		r.pos = pos
		r.st.lastCycle += uint64(n)
		rec.Cycle = r.st.lastCycle
		r.repeats += uint64(n)
	}
	return n
}

// sliceUvarint reads one uvarint from data at pos for the in-memory decode
// path, with the same one-byte fast path as putUvarint.
func sliceUvarint(data []byte, pos int) (uint64, int, error) {
	if pos < len(data) && data[pos] < 0x80 {
		return uint64(data[pos]), pos + 1, nil
	}
	return sliceUvarintSlow(data, pos)
}

// sliceUvarintSlow is the multi-byte tail of sliceUvarint, split out so the
// one-byte fast path stays under the inlining budget of its callers.
func sliceUvarintSlow(data []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, pos, io.ErrUnexpectedEOF
	}
	return v, pos + n, nil
}

// decodeRecord decodes the record at data[pos:] into rec — the one record
// decoder behind every reader. It returns the position after the record;
// the codec state carries the delta bases between records.
func decodeRecord(data []byte, pos int, st *codecState, rec *Record) (int, error) {
	delta, pos, err := sliceUvarint(data, pos)
	if err != nil {
		return pos, err
	}
	// Clear only what the previous decode into rec could have dirtied:
	// every header field is overwritten below, bank flags are overwritten
	// for i < NumBanks, and every flag-guarded payload block is explicitly
	// zeroed on its flag-false branch — bit-identical to *rec = Record{}
	// without re-zeroing the ~300-byte struct once per replayed cycle.
	prevBanks := rec.NumBanks
	if prevBanks > MaxBanks {
		prevBanks = MaxBanks
	}
	st.lastCycle += delta
	rec.Cycle = st.lastCycle
	if pos+4 > len(data) {
		return pos, io.ErrUnexpectedEOF
	}
	flags := data[pos]
	rec.ROBEmpty = flags&1 != 0
	rec.ExceptionRaised = flags&2 != 0
	rec.DispatchValid = flags&4 != 0
	rec.AnyInFlight = flags&8 != 0
	rec.NumBanks = int(data[pos+1])
	if rec.NumBanks > MaxBanks {
		return pos, fmt.Errorf("trace: bank count %d exceeds max %d", rec.NumBanks, MaxBanks)
	}
	rec.HeadBank = data[pos+2]
	rec.CommitCount = data[pos+3]
	pos += 4
	// The delta bases live in locals across the whole record (written back
	// on success; an error abandons the stream) and each varint load runs
	// its one-byte fast path inline — the helpers are beyond the inliner's
	// budget and this loop is the hottest part of replay.
	lastPC, lastFID, lastInst := st.lastPC, st.lastFID, st.lastInst
	for i := 0; i < rec.NumBanks; i++ {
		if pos >= len(data) {
			return pos, io.ErrUnexpectedEOF
		}
		bf := data[pos]
		pos++
		b := &rec.Banks[i]
		b.Valid = bf&1 != 0
		b.Committing = bf&2 != 0
		b.Mispredicted = bf&4 != 0
		b.Flush = bf&8 != 0
		b.Exception = bf&16 != 0
		if b.Valid {
			var u uint64
			if pos < len(data) && data[pos] < 0x80 {
				u = uint64(data[pos])
				pos++
			} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
				return pos, err
			}
			lastPC = uint64(int64(lastPC) + unzigzag(u))
			b.PC = lastPC
			if pos < len(data) && data[pos] < 0x80 {
				u = uint64(data[pos])
				pos++
			} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
				return pos, err
			}
			lastFID = uint64(int64(lastFID) + unzigzag(u))
			b.FID = lastFID
			if pos < len(data) && data[pos] < 0x80 {
				u = uint64(data[pos])
				pos++
			} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
				return pos, err
			}
			lastInst += unzigzag(u)
			b.InstIndex = int32(lastInst)
		} else {
			b.PC = 0
			b.FID = 0
			b.InstIndex = 0
		}
	}
	for i := rec.NumBanks; i < prevBanks; i++ {
		rec.Banks[i] = BankEntry{}
	}
	if rec.ExceptionRaised {
		var u uint64
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastPC = uint64(int64(lastPC) + unzigzag(u))
		rec.ExceptionPC = lastPC
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastFID = uint64(int64(lastFID) + unzigzag(u))
		rec.ExceptionFID = lastFID
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastInst += unzigzag(u)
		rec.ExceptionInstIndex = int32(lastInst)
	} else {
		rec.ExceptionPC = 0
		rec.ExceptionFID = 0
		rec.ExceptionInstIndex = 0
	}
	if rec.DispatchValid {
		var u uint64
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastPC = uint64(int64(lastPC) + unzigzag(u))
		rec.DispatchPC = lastPC
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastFID = uint64(int64(lastFID) + unzigzag(u))
		rec.DispatchFID = lastFID
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastInst += unzigzag(u)
		rec.DispatchInstIndex = int32(lastInst)
	} else {
		rec.DispatchPC = 0
		rec.DispatchFID = 0
		rec.DispatchInstIndex = 0
	}
	if rec.AnyInFlight {
		var u uint64
		if pos < len(data) && data[pos] < 0x80 {
			u = uint64(data[pos])
			pos++
		} else if u, pos, err = sliceUvarintSlow(data, pos); err != nil {
			return pos, err
		}
		lastFID = uint64(int64(lastFID) + unzigzag(u))
		rec.YoungestFID = lastFID
	} else {
		rec.YoungestFID = 0
	}
	st.lastPC, st.lastFID, st.lastInst = lastPC, lastFID, lastInst
	return pos, nil
}
