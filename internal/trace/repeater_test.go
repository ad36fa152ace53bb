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
func repeaterSteps(data []byte) []repStep {
	src := fuzzSource(data)
	var w Record
	var steps []repStep
	for len(src) > 0 && len(steps) < 1<<14 {
		flags := src.next()
		w.Cycle += uint64(flags & 3)
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
// split, when set, gathers consecutive repeats into runs: it is given the
// repeats left in the stretch and returns how many the next OnRepeat takes
// (the core's delivery is one at a time).
func deliver(c Repeater, steps []repStep, useRepeat bool, split func(left uint64) uint64) {
	var r Record
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if !s.repeat || !useRepeat {
			r = s.rec
			c.OnCycle(&r)
			continue
		}
		left := uint64(1)
		for i+int(left) < len(steps) && steps[i+int(left)].repeat {
			left++
		}
		for left > 0 {
			n := uint64(1)
			if split != nil {
				n = max(1, min(split(left), left))
			}
			i += int(n) - 1
			r = steps[i].rec
			c.OnRepeat(&r, n)
			left -= n
			if left > 0 {
				i++
			}
		}
	}
	if n := len(steps); n > 0 {
		c.Finish(steps[n-1].rec.Cycle + 1)
	}
}

// randomSplit returns a split for deliver that draws run lengths from a
// generator seeded with seed.
func randomSplit(seed uint64) func(uint64) uint64 {
	return func(left uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return 1 + (seed>>33)%left
	}
}

// captureBytes delivers steps into a fresh capture that spills past spill
// bytes (0: the default budget) and returns its WriteTo bytes and record
// count.
func captureBytes(t *testing.T, steps []repStep, spill int, useRepeat bool, split func(uint64) uint64) ([]byte, uint64) {
	if spill == 0 {
		spill = DefaultSpillBytes
	}
	c := newCapture(spill)
	defer c.Close()
	deliver(c, steps, useRepeat, split)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c.Records()
}

// streamReplay delivers steps into a fresh stream and returns what one
// replay shard observes; with takeRuns its consumer takes the ring's run
// slots as OnRepeat calls, which it expands back into records.
func streamReplay(t *testing.T, steps []repStep, pilot uint64, chunk int, useRepeat bool, split func(uint64) uint64, takeRuns bool) (collect, PilotStats) {
	s := newStream(pilot, chunk, streamRingDepth)
	go deliver(s, steps, useRepeat, split)
	var got runCollect
	var c Consumer = &got.collect
	if takeRuns {
		c = &got
	}
	if _, _, err := s.ReplayShards(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got.bad != nil {
		t.Fatal(got.bad)
	}
	ps, err := s.Pilot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return got.collect, ps
}

// FuzzRepeater delivers random record sequences with repeat runs through
// OnRepeat, one cycle at a time and in runs of random length, and
// through OnCycle alone: a Capture must write the same bytes either way, in
// memory and spilled, and a Stream must replay the same records and pilot
// stats, across pilot windows and chunk sizes, to a consumer that takes
// the ring's run slots as runs and to one that takes them cycle by cycle.
func FuzzRepeater(f *testing.F) {
	f.Add([]byte{0x20, 4, 1, 0x21, 0x10, 0x00, 9, 40, 0x20, 4, 1, 0x21, 0x11, 0x00, 9, 3})
	f.Add([]byte{0xf1, 1, 8, 0, 0x23, 1, 2, 3, 0x3f, 4, 5, 6, 7, 8, 9, 200, 0x45, 2, 2, 2, 0x40, 0x41, 255})
	f.Add([]byte{0x04, 0, 4, 0, 255, 0x41, 0, 4, 1, 0x23, 7, 7, 7, 3, 3, 3, 0, 0, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := data[0]
		steps := repeaterSteps(data[1:])
		if len(steps) == 0 {
			return
		}
		spill := 0
		if mode&2 != 0 {
			spill = 64
		}
		seed := uint64(len(data))<<8 | uint64(data[len(data)-1])
		want, wantN := captureBytes(t, steps, spill, false, nil)
		for _, split := range []func(uint64) uint64{nil, randomSplit(seed)} {
			got, gotN := captureBytes(t, steps, spill, true, split)
			if !bytes.Equal(got, want) || gotN != wantN {
				t.Fatalf("capture through OnRepeat (runs %v): %d records, %d bytes; through OnCycle: %d records, %d bytes",
					split != nil, gotN, len(got), wantN, len(want))
			}
		}
		chunk, pilot := 1+int(mode>>2&7), uint64(mode>>5)*16
		wantRecs, wantPilot := streamReplay(t, steps, pilot, chunk, false, nil, false)
		for _, tc := range []struct {
			split    func(uint64) uint64
			takeRuns bool
		}{{nil, false}, {nil, true}, {randomSplit(seed), false}, {randomSplit(seed), true}} {
			gotRecs, gotPilot := streamReplay(t, steps, pilot, chunk, true, tc.split, tc.takeRuns)
			if gotPilot != wantPilot || gotRecs.total != wantRecs.total || len(gotRecs.recs) != len(wantRecs.recs) {
				t.Fatalf("stream through OnRepeat (runs %v, consumer takes runs %v): pilot %+v, %d records, total %d; through OnCycle: pilot %+v, %d records, total %d",
					tc.split != nil, tc.takeRuns, gotPilot, len(gotRecs.recs), gotRecs.total, wantPilot, len(wantRecs.recs), wantRecs.total)
			}
			for i := range wantRecs.recs {
				if gotRecs.recs[i] != wantRecs.recs[i] {
					t.Fatalf("stream record %d (runs %v, consumer takes runs %v):\n got %+v\nwant %+v",
						i, tc.split != nil, tc.takeRuns, gotRecs.recs[i], wantRecs.recs[i])
				}
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
		want, _ := captureBytes(t, steps, spill, false, nil)
		if len(want) < 3*blockBytes {
			t.Fatalf("trace of %d bytes fills fewer than 3 blocks", len(want))
		}
		for _, split := range []func(uint64) uint64{nil, randomSplit(uint64(spill))} {
			got, _ := captureBytes(t, steps, spill, true, split)
			if !bytes.Equal(got, want) {
				t.Fatalf("spill %d (runs %v): OnRepeat capture differs from OnCycle capture", spill, split != nil)
			}
		}
	}
}
