package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// fuzzSeedTraces returns small encoded traces used to seed both fuzz
// targets, so the fuzzer starts from well-formed inputs and mutates from
// there. The first numValid seeds replay cleanly; the rest are degenerate
// inputs the decoder must reject (TestFuzzSeedsReplayCleanly pins the
// split).
func fuzzSeedTraces() (seeds [][]byte, numValid int) {
	r0 := sampleRecord(0)
	seeds = append(seeds, encodeRecords([]Record{r0}))

	burst := make([]Record, 8)
	for i := range burst {
		burst[i] = sampleRecord(uint64(i * 3))
		burst[i].Banks[1].Committing = i%2 == 0
		if burst[i].Banks[1].Committing {
			burst[i].CommitCount = 1
		} else {
			burst[i].CommitCount = 0
		}
	}
	burst[3].ExceptionRaised = true
	burst[3].ExceptionPC = 0xfeed
	burst[3].ExceptionFID = 42
	burst[3].ExceptionInstIndex = -1
	burst[5].DispatchValid = true
	burst[5].DispatchPC = 0xbeef
	burst[5].DispatchFID = 77
	burst[5].DispatchInstIndex = 5
	seeds = append(seeds, encodeRecords(burst))

	synth, _ := syntheticTrace(40, 9)
	seeds = append(seeds, synth)

	// Wide deltas: the burst spread over far-apart cycles, with PCs, FIDs
	// and instruction indices jumping back and forth, so every varint runs
	// several bytes and the signed deltas alternate sign.
	wide := make([]Record, len(burst))
	copy(wide, burst)
	for i := range wide {
		wide[i].Cycle = uint64(i) * 100_000
		if i%2 == 1 {
			wide[i].Banks[1].PC += 1 << 40
			wide[i].Banks[2].FID += 1 << 30
			wide[i].Banks[2].InstIndex -= 1 << 20
		}
	}
	seeds = append(seeds, encodeRecords(wide))

	// A stall recorded every other cycle: its records repeat byte for byte
	// under a cycle delta of 2, which the repeat shortcut serves but no run
	// covers.
	everyOther := (&stallTrace{}).commit(0x52000)
	for i := 0; i < 6; i++ {
		everyOther.skip(1).stall(0x40000, 1)
	}
	seeds = append(seeds, everyOther.commit(0x40000).encode())

	// Stall runs: runs a stalled core repeats byte for byte
	// (the reader's repeat shortcut), broken by a longer cycle gap, by a
	// move to another stalled instruction and by commits.
	stalls := (&stallTrace{}).commit(0x52000).stall(0x40000, 6).skip(1).stall(0x40000, 3).
		stall(0x52000, 4).commit(0x52000).empty(3).commit(0x40000)
	seeds = append(seeds, stalls.encode())

	// Identical record bytes under advancing bases, which must not be
	// served as repeats.
	seeds = append(seeds, (&stallTrace{}).slide(0x40000, 6).commit(0x40000).encode())

	numValid = len(seeds)

	// Degenerate inputs: empty, magic only, the retired multicore header
	// alone and before a well-formed body, magic plus garbage, bad magic.
	v3Header := "TIPTRC3\n"
	seeds = append(seeds,
		nil,
		[]byte(formatMagic),
		[]byte(v3Header),
		append([]byte(formatMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		append([]byte(v3Header), seeds[1][len(formatMagic):]...),
		[]byte("NOTATRACE"),
	)
	return seeds, numValid
}

// FuzzDecodeRecord drives the record decoder over arbitrary bytes, directly
// and through a slice reader, whose repeat shortcut skips it. Neither may
// panic, and both must always make progress (or error): a malformed trace
// is an error to report, not a crash or an infinite loop. Decoded records
// are run through the age-order accessors, which must tolerate any field
// values the decoder lets through.
func FuzzDecodeRecord(f *testing.F) {
	seeds, _ := fuzzSeedTraces()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Accessors must clamp malformed bank counts, never index out of
		// range.
		access := func(rec *Record) {
			rec.Oldest()
			rec.YoungestCommitting()
			rec.CommittingInAgeOrder(nil)
		}
		var st codecState
		var rec Record
		pos := 0
		for pos < len(data) {
			next, err := decodeRecord(data, pos, &st, &rec)
			if err != nil {
				break
			}
			if next <= pos {
				t.Fatalf("decodeRecord made no progress at %d", pos)
			}
			pos = next
			access(&rec)
		}
		r := newSliceReader(data)
		var next Record
		for {
			at := r.pos
			if err := r.next(&next); err != nil {
				return
			}
			if r.pos <= at {
				t.Fatalf("reader made no progress at %d", at)
			}
			access(&next)
		}
	})
}

// refReplay is replay over the reference decoder.
func refReplay(data []byte, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	r := newRefReader(bytes.NewReader(data))
	var rec Record
	lastCommit := uint64(0)
	for {
		if err := r.next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, records, err
		}
		records++
		for _, c := range consumers {
			c.OnCycle(&rec)
		}
		if rec.CommitCount > 0 {
			lastCommit = rec.Cycle
		}
	}
	if records == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	cycles = lastCommit + 1
	for _, c := range consumers {
		c.Finish(cycles)
	}
	return cycles, records, nil
}

// decodePath is one decode path's outcome over a fuzz input.
type decodePath struct {
	name          string
	recs          []Record
	cycles, count uint64
	err           error
}

// FuzzReplayBytes is a differential fuzz of the decode paths over the same
// input: the reference decoder, a slice reader (ReplayBytes), and both
// shards of a 2-shard Capture.ReplayShards. All must agree — same
// accept/reject decision and, on success, the identical record sequence and
// totals. None may panic. The stall-run seeds drive the slice and shard
// Readers through their repeat shortcut; the reference has none.
func FuzzReplayBytes(f *testing.F) {
	seeds, _ := fuzzSeedTraces()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, viaSlice collect
		var viaShards [2]collect
		p := []decodePath{{name: "reference"}, {name: "slice"}, {name: "shard 0"}, {name: "shard 1"}}
		p[0].cycles, p[0].count, p[0].err = refReplay(data, &ref)
		p[1].cycles, p[1].count, p[1].err = ReplayBytes(data, &viaSlice)
		// NewCaptureFromEncoded sniffs the magic up front; its verdict
		// stands for both shards'.
		capt, err := NewCaptureFromEncoded(data, 0, 0)
		if err == nil {
			p[2].cycles, p[2].count, err = capt.ReplayShards(context.Background(), 7, &viaShards[0], &viaShards[1])
			p[3].cycles, p[3].count = p[2].cycles, p[2].count
		}
		p[2].err, p[3].err = err, err
		p[0].recs, p[1].recs = ref.recs, viaSlice.recs
		p[2].recs, p[3].recs = viaShards[0].recs, viaShards[1].recs

		for _, got := range p[1:] {
			if (got.err == nil) != (p[0].err == nil) {
				t.Fatalf("%s disagrees with the reference: err %v, reference err %v", got.name, got.err, p[0].err)
			}
			if got.err != nil {
				continue
			}
			if got.cycles != p[0].cycles || got.count != p[0].count {
				t.Fatalf("%s totals %d/%d, reference %d/%d", got.name, got.cycles, got.count, p[0].cycles, p[0].count)
			}
			if len(got.recs) != len(ref.recs) {
				t.Fatalf("%s decoded %d records, reference %d", got.name, len(got.recs), len(ref.recs))
			}
			for i := range ref.recs {
				if got.recs[i] != ref.recs[i] {
					t.Fatalf("%s record %d differs from the reference", got.name, i)
				}
			}
		}
	})
}

// TestFuzzSeedsReplayCleanly sanity-checks that the valid seeds really are
// valid (and the corrupted ones really are rejected) under the normal test
// runner, so a codec change that invalidates the corpus fails fast here. The
// valid seeds must also drive the reader through its repeat shortcut.
func TestFuzzSeedsReplayCleanly(t *testing.T) {
	seeds, numValid := fuzzSeedTraces()
	var repeats uint64
	for i, s := range seeds[:numValid] {
		r := newSliceReader(s)
		if _, _, err := replay(r, &nullConsumer{}); err != nil {
			t.Fatalf("seed %d does not replay: %v", i, err)
		}
		repeats += r.repeats
	}
	if repeats == 0 {
		t.Fatal("no valid seed takes the reader's repeat shortcut")
	}
	for i, s := range seeds[numValid:] {
		if _, _, err := ReplayBytes(s, &nullConsumer{}); err == nil {
			t.Fatalf("degenerate seed %d replayed cleanly", i)
		}
	}
}

// refReader is the fuzz reference decoder: it reads byte at a time through
// bufio, field by field, and shares no decode code with reader's window
// over decodeRecord.
type refReader struct {
	r       *bufio.Reader
	st      codecState
	readHdr bool
	// scratch backs the fixed-size header reads; a local array would
	// escape through the io.ReadFull interface call and cost one heap
	// allocation per record.
	scratch [len(formatMagic)]byte
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *refReader) readPC() (uint64, error) {
	u, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, unexpected(err)
	}
	pc := uint64(int64(r.st.lastPC) + unzigzag(u))
	r.st.lastPC = pc
	return pc, nil
}

func (r *refReader) readFID() (uint64, error) {
	u, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, unexpected(err)
	}
	fid := uint64(int64(r.st.lastFID) + unzigzag(u))
	r.st.lastFID = fid
	return fid, nil
}

func (r *refReader) readInst() (int32, error) {
	u, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, unexpected(err)
	}
	idx := r.st.lastInst + unzigzag(u)
	r.st.lastInst = idx
	return int32(idx), nil
}

// next decodes the next record into rec. It returns io.EOF at end of trace.
func (r *refReader) next(rec *Record) error {
	if !r.readHdr {
		hdr := r.scratch[:len(formatMagic)]
		if _, err := io.ReadFull(r.r, hdr); err != nil {
			return err
		}
		if string(hdr) != formatMagic {
			return badMagic(hdr)
		}
		r.readHdr = true
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		return err
	}
	*rec = Record{}
	r.st.lastCycle += delta
	rec.Cycle = r.st.lastCycle
	hdr := r.scratch[:4]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		return unexpected(err)
	}
	flags := hdr[0]
	rec.ROBEmpty = flags&1 != 0
	rec.ExceptionRaised = flags&2 != 0
	rec.DispatchValid = flags&4 != 0
	rec.AnyInFlight = flags&8 != 0
	rec.NumBanks = int(hdr[1])
	if rec.NumBanks > MaxBanks {
		return fmt.Errorf("trace: bank count %d exceeds max %d", rec.NumBanks, MaxBanks)
	}
	rec.HeadBank = hdr[2]
	rec.CommitCount = hdr[3]
	for i := 0; i < rec.NumBanks; i++ {
		bf, err := r.r.ReadByte()
		if err != nil {
			return unexpected(err)
		}
		b := &rec.Banks[i]
		b.Valid = bf&1 != 0
		b.Committing = bf&2 != 0
		b.Mispredicted = bf&4 != 0
		b.Flush = bf&8 != 0
		b.Exception = bf&16 != 0
		if b.Valid {
			if b.PC, err = r.readPC(); err != nil {
				return err
			}
			if b.FID, err = r.readFID(); err != nil {
				return err
			}
			if b.InstIndex, err = r.readInst(); err != nil {
				return err
			}
		}
	}
	if rec.ExceptionRaised {
		if rec.ExceptionPC, err = r.readPC(); err != nil {
			return err
		}
		if rec.ExceptionFID, err = r.readFID(); err != nil {
			return err
		}
		if rec.ExceptionInstIndex, err = r.readInst(); err != nil {
			return err
		}
	}
	if rec.DispatchValid {
		if rec.DispatchPC, err = r.readPC(); err != nil {
			return err
		}
		if rec.DispatchFID, err = r.readFID(); err != nil {
			return err
		}
		if rec.DispatchInstIndex, err = r.readInst(); err != nil {
			return err
		}
	}
	if rec.AnyInFlight {
		if rec.YoungestFID, err = r.readFID(); err != nil {
			return err
		}
	}
	return nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
