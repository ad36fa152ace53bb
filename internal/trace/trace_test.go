package trace

import (
	"io"
	"slices"
	"testing"
	"testing/quick"

	"github.com/tipprof/tip/internal/xrand"
)

// encoder is the per-cycle reference encoding: the magic header, then every
// record through appendRecord onto one growing slice — the codec without a
// Capture's blocks, spilling or repeat spans. It is a Consumer but not a
// Repeater, so a producer hands it each cycle through OnCycle.
type encoder struct {
	buf []byte
	st  codecState
}

func (e *encoder) OnCycle(r *Record) {
	if e.buf == nil {
		e.buf = []byte(formatMagic)
	}
	e.buf = appendRecord(slices.Grow(e.buf, maxRecordBytes), r, &e.st)
}

func (e *encoder) Finish(uint64) {}

// encodeRecords is the reference encoding of recs; no records encode to no
// bytes at all.
func encodeRecords(recs []Record) []byte {
	e := &encoder{}
	for i := range recs {
		e.OnCycle(&recs[i])
	}
	return e.buf
}

func sampleRecord(cycle uint64) Record {
	var r Record
	r.Cycle = cycle
	r.NumBanks = 4
	r.HeadBank = 1
	r.Banks[1] = BankEntry{Valid: true, Committing: true, PC: 0x10000, FID: 7, InstIndex: 3}
	r.Banks[2] = BankEntry{Valid: true, PC: 0x10004, FID: 8, InstIndex: 4}
	r.CommitCount = 1
	r.AnyInFlight = true
	r.YoungestFID = 12
	return r
}

func TestOldestRespectsHeadBank(t *testing.T) {
	r := sampleRecord(5)
	old := r.Oldest()
	if old == nil || old.FID != 7 {
		t.Fatalf("Oldest = %+v", old)
	}
	// Invalidate head bank: next in age order is bank 2.
	r.Banks[1].Valid = false
	old = r.Oldest()
	if old == nil || old.FID != 8 {
		t.Fatalf("Oldest after head invalid = %+v", old)
	}
	r.ROBEmpty = true
	if r.Oldest() != nil {
		t.Fatal("Oldest on empty ROB should be nil")
	}
}

func TestCommittingInAgeOrder(t *testing.T) {
	var r Record
	r.NumBanks = 4
	r.HeadBank = 2
	// Banks 2, 3 commit (ages 0, 1); bank 0 commits (age 2).
	r.Banks[2] = BankEntry{Valid: true, Committing: true, FID: 10}
	r.Banks[3] = BankEntry{Valid: true, Committing: true, FID: 11}
	r.Banks[0] = BankEntry{Valid: true, Committing: true, FID: 12}
	out := r.CommittingInAgeOrder(nil)
	if len(out) != 3 || out[0].FID != 10 || out[1].FID != 11 || out[2].FID != 12 {
		t.Fatalf("age order wrong: %v %v %v", out[0].FID, out[1].FID, out[2].FID)
	}
	if y := r.YoungestCommitting(); y == nil || y.FID != 12 {
		t.Fatalf("YoungestCommitting = %+v", y)
	}
}

func TestAccessorsClampMalformedBankCount(t *testing.T) {
	// A corrupt producer can hand out a record with NumBanks past the
	// array; the age-order accessors must clamp rather than panic so the
	// invariant checker gets to report the record.
	r := sampleRecord(0)
	r.NumBanks = MaxBanks + 3
	if old := r.Oldest(); old == nil || old.FID != 7 {
		t.Fatalf("Oldest on malformed record = %+v", old)
	}
	if y := r.YoungestCommitting(); y == nil || y.FID != 7 {
		t.Fatalf("YoungestCommitting on malformed record = %+v", y)
	}
	if out := r.CommittingInAgeOrder(nil); len(out) != 1 {
		t.Fatalf("CommittingInAgeOrder on malformed record = %d entries", len(out))
	}
}

func TestYoungestCommittingNil(t *testing.T) {
	var r Record
	r.NumBanks = 4
	r.Banks[0] = BankEntry{Valid: true} // valid but not committing
	if r.YoungestCommitting() != nil {
		t.Fatal("expected nil when nothing commits")
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &CountingConsumer{}, &CountingConsumer{}
	tee := &Tee{Consumers: []Consumer{a, b}}
	r := sampleRecord(1)
	tee.OnCycle(&r)
	tee.OnCycle(&r)
	tee.Finish(2)
	if a.Cycles != 2 || b.Cycles != 2 {
		t.Fatalf("cycles %d/%d", a.Cycles, b.Cycles)
	}
	if !a.Finished || !b.Finished || a.Total != 2 {
		t.Fatal("finish not propagated")
	}
	if a.Commits != 2 {
		t.Fatalf("commits = %d", a.Commits)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	recs := []Record{sampleRecord(0), sampleRecord(1), sampleRecord(100)}
	recs[1].ExceptionRaised = true
	recs[1].ExceptionPC = 0x2000
	recs[1].ExceptionFID = 99
	recs[1].ExceptionInstIndex = -1
	recs[2].DispatchValid = true
	recs[2].DispatchPC = 0x3000
	recs[2].DispatchFID = 55
	recs[2].DispatchInstIndex = 9
	recs[2].ROBEmpty = true
	for i := range recs {
		c.OnCycle(&recs[i])
	}
	c.Finish(101)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if c.Records() != 3 {
		t.Fatalf("wrote %d records", c.Records())
	}

	r := c.reader()
	for i := range recs {
		var got Record
		if err := r.next(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, recs[i])
		}
	}
	var extra Record
	if err := r.next(&extra); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	r := newSliceReader([]byte("NOTATRACE"))
	var rec Record
	if err := r.next(&rec); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := encodeRecords([]Record{sampleRecord(0)})
	r := newSliceReader(data[:len(data)-3])
	var got Record
	err := r.next(&got)
	if err == nil {
		// First record may decode if truncation hit trailing fields of
		// a later record; here there is only one, so it must fail.
		t.Fatal("truncated trace decoded cleanly")
	}
}

// Property: arbitrary records survive an encode/decode round trip.
func TestQuickRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	gen := func() Record {
		var r Record
		r.NumBanks = 1 + int(rng.Uint64n(MaxBanks))
		r.Cycle = rng.Uint64n(1 << 40)
		r.HeadBank = uint8(rng.Uint64n(uint64(r.NumBanks)))
		for i := 0; i < r.NumBanks; i++ {
			if rng.Bool(0.7) {
				r.Banks[i] = BankEntry{
					Valid:        true,
					Committing:   rng.Bool(0.5),
					Mispredicted: rng.Bool(0.1),
					Flush:        rng.Bool(0.1),
					Exception:    rng.Bool(0.05),
					PC:           rng.Uint64n(1 << 48),
					FID:          rng.Uint64n(1 << 48),
					InstIndex:    int32(rng.Uint64n(1<<20)) - 1,
				}
			}
		}
		empty := true
		commits := 0
		for i := 0; i < r.NumBanks; i++ {
			if r.Banks[i].Valid {
				empty = false
				if r.Banks[i].Committing {
					commits++
				}
			}
		}
		r.ROBEmpty = empty
		r.CommitCount = uint8(commits)
		if rng.Bool(0.3) {
			r.ExceptionRaised = true
			r.ExceptionPC = rng.Uint64n(1 << 48)
			r.ExceptionFID = rng.Uint64n(1 << 30)
			r.ExceptionInstIndex = int32(rng.Uint64n(100)) - 1
		}
		if rng.Bool(0.5) {
			r.DispatchValid = true
			r.DispatchPC = rng.Uint64n(1 << 48)
			r.DispatchFID = rng.Uint64n(1 << 30)
			r.DispatchInstIndex = int32(rng.Uint64n(100)) - 1
		}
		if rng.Bool(0.8) {
			r.AnyInFlight = true
			r.YoungestFID = rng.Uint64n(1 << 40)
		}
		return r
	}
	f := func(n uint8) bool {
		count := int(n%16) + 1
		recs := make([]Record, count)
		cycle := uint64(0)
		for i := range recs {
			recs[i] = gen()
			cycle += recs[i].Cycle % 1000
			recs[i].Cycle = cycle
		}
		r := newSliceReader(encodeRecords(recs))
		for i := range recs {
			var got Record
			if err := r.next(&got); err != nil {
				return false
			}
			if got != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	block := make([]byte, 0, blockBytes)
	var st codecState
	rec := sampleRecord(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cap(block)-len(block) < maxRecordBytes {
			block = block[:0]
		}
		rec.Cycle = uint64(i)
		block = appendRecord(block, &rec, &st)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	// Replay-side decode throughput over a realistic mixed stream:
	// mostly committing records with small deltas, occasional gaps.
	e := &encoder{}
	const n = 4096
	for i := 0; i < n; i++ {
		rec := sampleRecord(uint64(i))
		rec.Banks[1].PC = 0x10000 + uint64(i)*4
		rec.Banks[1].FID = uint64(7 + i)
		if i%17 == 0 { // idle cycle: no banks, nothing in flight
			rec = Record{Cycle: uint64(i)}
		}
		e.OnCycle(&rec)
	}
	data := e.buf
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReplayBytes(data, &CountingConsumer{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTeeDispatch(b *testing.B) {
	tee := &Tee{Consumers: []Consumer{&CountingConsumer{}, &CountingConsumer{}, &CountingConsumer{}}}
	rec := sampleRecord(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tee.OnCycle(&rec)
	}
}
