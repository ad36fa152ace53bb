package trace

import (
	"bytes"
	"context"
	"testing"
)

// repStep is one delivery to a producer-side sink: a record to take through
// OnCycle, or a repeat of the last one, one cycle later.
type repStep struct {
	rec    Record
	repeat bool
}

// fuzzSource hands out fuzz input bytes, then zeros.
type fuzzSource []byte

func (f *fuzzSource) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// repeaterSteps turns fuzz bytes into a delivery sequence with repeat runs.
// Like the core, it reuses one record and rewrites only some fields for each
// new cycle, so payloads behind cleared flags stay stale; every new record
// is followed by a run of 0-255 repeats.
func repeaterSteps(data []byte, v3 bool) []repStep {
	src := fuzzSource(data)
	var w Record
	var steps []repStep
	for len(src) > 0 && len(steps) < 1<<14 {
		flags := src.next()
		w.Cycle += uint64(flags & 3)
		if v3 {
			w.Core = uint32(src.next() % 3)
		}
		w.NumBanks = int(src.next() % (MaxBanks + 1))
		w.HeadBank = src.next() % MaxBanks
		w.ROBEmpty = flags&4 != 0
		w.ExceptionRaised = flags&8 != 0
		w.DispatchValid = flags&16 != 0
		w.AnyInFlight = flags&32 != 0
		w.CommitCount = (flags >> 6) & 1
		for i := 0; i < w.NumBanks; i++ {
			bf := src.next()
			b := &w.Banks[i]
			b.Valid = bf&1 != 0
			b.Committing = bf&2 != 0
			b.Mispredicted = bf&4 != 0
			b.Flush = bf&8 != 0
			b.Exception = bf&16 != 0
			if bf&32 != 0 {
				b.PC = 0x40000 + 4*uint64(src.next())
				b.FID = uint64(src.next())
				b.InstIndex = int32(src.next())
			}
		}
		if flags&128 != 0 {
			v := uint64(src.next())
			w.ExceptionPC, w.ExceptionFID, w.ExceptionInstIndex = 0x40000+4*v, v, int32(v)
			v = uint64(src.next())
			w.DispatchPC, w.DispatchFID, w.DispatchInstIndex = 0x40000+4*v, v+1, int32(v)
			w.YoungestFID = uint64(src.next()) + 2
		}
		steps = append(steps, repStep{rec: w})
		for n := int(src.next()); n > 0; n-- {
			w.Cycle++
			steps = append(steps, repStep{rec: w, repeat: true})
		}
	}
	return steps
}

// deliver feeds steps into c through one reused record, as a core run does:
// with useRepeat, repeats go through OnRepeat, otherwise through OnCycle.
func deliver(c Repeater, steps []repStep, useRepeat bool) {
	var r Record
	for _, s := range steps {
		r = s.rec
		if s.repeat && useRepeat {
			c.OnRepeat(&r)
		} else {
			c.OnCycle(&r)
		}
	}
	if n := len(steps); n > 0 {
		c.Finish(steps[n-1].rec.Cycle + 1)
	}
}

// captureBytes delivers steps into a fresh capture and returns its WriteTo
// bytes and record count.
func captureBytes(t *testing.T, steps []repStep, v3 bool, spill int, useRepeat bool) ([]byte, uint64) {
	c := NewCapture(spill)
	if v3 {
		c = NewCaptureV3(spill)
	}
	defer c.Close()
	deliver(c, steps, useRepeat)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c.Records()
}

// streamReplay delivers steps into a fresh stream and returns what one
// replay shard observes.
func streamReplay(t *testing.T, steps []repStep, cfg StreamConfig, useRepeat bool) (collect, PilotStats) {
	s := NewStream(cfg)
	go deliver(s, steps, useRepeat)
	var got collect
	if _, _, err := s.ReplayShards(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	ps, err := s.Pilot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return got, ps
}

// FuzzRepeater delivers random record sequences with repeat runs, v2 and v3,
// through OnRepeat and through OnCycle alone: a Capture must write the same
// bytes either way, in memory and spilled, and a Stream must replay the same
// records and pilot stats, across pilot windows and chunk sizes.
func FuzzRepeater(f *testing.F) {
	f.Add([]byte{0x20, 4, 1, 0x21, 0x10, 0x00, 9, 40, 0x20, 4, 1, 0x21, 0x11, 0x00, 9, 3})
	f.Add([]byte{0xf1, 1, 8, 0, 0x23, 1, 2, 3, 0x3f, 4, 5, 6, 7, 8, 9, 200, 0x45, 2, 2, 2, 0x40, 0x41, 255})
	f.Add([]byte{0x04, 0, 4, 0, 255, 0x41, 0, 4, 1, 0x23, 7, 7, 7, 3, 3, 3, 0, 0, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := data[0]
		v3 := mode&1 != 0
		steps := repeaterSteps(data[1:], v3)
		if len(steps) == 0 {
			return
		}
		spill := 0
		if mode&2 != 0 {
			spill = 64
		}
		want, wantN := captureBytes(t, steps, v3, spill, false)
		got, gotN := captureBytes(t, steps, v3, spill, true)
		if !bytes.Equal(got, want) || gotN != wantN {
			t.Fatalf("capture through OnRepeat: %d records, %d bytes; through OnCycle: %d records, %d bytes",
				gotN, len(got), wantN, len(want))
		}
		cfg := StreamConfig{
			ChunkRecords: 1 + int(mode>>2&7),
			PilotCycles:  uint64(mode>>5) * 16,
		}
		wantRecs, wantPilot := streamReplay(t, steps, cfg, false)
		gotRecs, gotPilot := streamReplay(t, steps, cfg, true)
		if gotPilot != wantPilot || gotRecs.total != wantRecs.total || len(gotRecs.recs) != len(wantRecs.recs) {
			t.Fatalf("stream through OnRepeat: pilot %+v, %d records, total %d; through OnCycle: pilot %+v, %d records, total %d",
				gotPilot, len(gotRecs.recs), gotRecs.total, wantPilot, len(wantRecs.recs), wantRecs.total)
		}
		for i := range wantRecs.recs {
			if gotRecs.recs[i] != wantRecs.recs[i] {
				t.Fatalf("stream record %d:\n got %+v\nwant %+v", i, gotRecs.recs[i], wantRecs.recs[i])
			}
		}
	})
}

// TestCaptureRepeatAcrossBlocks runs a stall long enough to fill several
// capture blocks through OnRepeat, in memory and spilled: the bytes must be
// those of OnCycle delivery.
func TestCaptureRepeatAcrossBlocks(t *testing.T) {
	st := &stallTrace{}
	st.commit(0x40000).stall(0x40000, 200_000).commit(0x40004).stall(0x40010, 3)
	steps := make([]repStep, len(st.recs))
	for i, r := range st.recs {
		steps[i] = repStep{rec: r, repeat: i > 0 && r.Cycle == st.recs[i-1].Cycle+1 && r.CommitCount == 0 &&
			st.recs[i-1].CommitCount == 0 && r.Banks[1].PC == st.recs[i-1].Banks[1].PC}
	}
	for _, spill := range []int{0, 3 << 20} {
		want, _ := captureBytes(t, steps, false, spill, false)
		if len(want) < 3*blockBytes {
			t.Fatalf("trace of %d bytes fills fewer than 3 blocks", len(want))
		}
		got, _ := captureBytes(t, steps, false, spill, true)
		if !bytes.Equal(got, want) {
			t.Fatalf("spill %d: OnRepeat capture differs from OnCycle capture", spill)
		}
	}
}
