package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// stallRecord is one cycle of a core stalled on the instruction at pc: two
// valid, non-committing head entries, an instruction waiting at dispatch
// and work in flight, so the record writes every PC, FID and InstIndex
// base. Repeated on consecutive cycles it encodes byte for byte the same
// from its second copy on.
func stallRecord(pc uint64) Record {
	var r Record
	r.NumBanks = 4
	r.HeadBank = 1
	fid := pc / 4
	r.Banks[1] = BankEntry{Valid: true, PC: pc, FID: fid, InstIndex: int32(fid % 512)}
	r.Banks[2] = BankEntry{Valid: true, PC: pc + 4, FID: fid + 1, InstIndex: int32((fid + 1) % 512)}
	r.DispatchValid = true
	r.DispatchPC = pc + 64
	r.DispatchFID = fid + 16
	r.DispatchInstIndex = int32((fid + 16) % 512)
	r.AnyInFlight = true
	r.YoungestFID = fid + 20
	return r
}

// stallTrace appends records on consecutive cycles.
type stallTrace struct {
	recs  []Record
	cycle uint64
}

func (s *stallTrace) add(r Record) {
	r.Cycle = s.cycle
	s.recs = append(s.recs, r)
	s.cycle++
}

// stall appends n cycles stalled at pc.
func (s *stallTrace) stall(pc uint64, n int) *stallTrace {
	for i := 0; i < n; i++ {
		s.add(stallRecord(pc))
	}
	return s
}

// commit appends one cycle in which the head entry at pc commits.
func (s *stallTrace) commit(pc uint64) *stallTrace {
	r := stallRecord(pc)
	r.Banks[1].Committing = true
	r.CommitCount = 1
	s.add(r)
	return s
}

// empty appends n empty-ROB cycles, which write no delta base at all.
func (s *stallTrace) empty(n int) *stallTrace {
	for i := 0; i < n; i++ {
		var r Record
		r.NumBanks = 4
		r.ROBEmpty = true
		s.add(r)
	}
	return s
}

// slide appends n non-committing cycles whose one valid entry advances by
// one instruction per cycle: every record encodes to the same bytes, but
// each decodes under bases the one before it moved.
func (s *stallTrace) slide(pc uint64, n int) *stallTrace {
	for i := 0; i < n; i++ {
		var r Record
		r.NumBanks = 4
		p := pc + uint64(4*i)
		r.Banks[0] = BankEntry{Valid: true, PC: p, FID: p / 4, InstIndex: int32(i)}
		s.add(r)
	}
	return s
}

// skip leaves n cycles without a record, so the next cycle delta is n+1.
func (s *stallTrace) skip(n uint64) *stallTrace {
	s.cycle += n
	return s
}

func (s *stallTrace) encode() []byte { return encodeRecords(s.recs) }

// capture captures the trace under a spill budget of limit bytes.
func (s *stallTrace) capture(t *testing.T, limit int) *Capture {
	t.Helper()
	c := newCapture(limit)
	t.Cleanup(func() { c.Close() })
	for i := range s.recs {
		c.OnCycle(&s.recs[i])
	}
	c.Finish(s.cycle)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// stallCase is an encoded trace with stall runs and the fewest records its
// slice reader must serve through the repeat shortcut.
type stallCase struct {
	name       string
	enc        []byte
	minRepeats uint64
}

func stallCases() []stallCase {
	const a, b = 0x40000, 0x52000
	return []stallCase{
		{"run of 100", (&stallTrace{}).commit(b).stall(a, 100).commit(a).encode(), 98},
		{"runs of 1, 2, 3 and 100", (&stallTrace{}).commit(b).stall(a, 1).commit(b).stall(a, 2).
			commit(b).stall(a, 3).commit(b).stall(a, 100).commit(a).encode(), 98 + 1},
		{"run broken by a cycle delta of 2", (&stallTrace{}).stall(a, 10).skip(1).stall(a, 10).commit(a).encode(), 16},
		{"first repeat after the bases change", (&stallTrace{}).stall(a, 5).stall(b, 5).stall(a, 5).commit(a).encode(), 9},
		{"repeat after a committing record", (&stallTrace{}).commit(a).stall(a, 5).commit(a).stall(a, 5).encode(), 8},
		{"empty ROB", (&stallTrace{}).commit(a).empty(50).commit(a).encode(), 49},
		{"identical bytes under advancing bases", (&stallTrace{}).slide(a, 50).commit(a).encode(), 0},
	}
}

// replayed is one route's replay outcome.
type replayed struct {
	got             collect
	cycles, records uint64
	err             error
}

// sameAsReference fails unless got delivered the reference decoder's
// records, totals and Finish.
func sameAsReference(t *testing.T, name string, ref, got replayed) {
	t.Helper()
	if ref.err != nil || got.err != nil {
		t.Fatalf("%s: err %v, reference err %v", name, got.err, ref.err)
	}
	if got.cycles != ref.cycles || got.records != ref.records || got.got.total != ref.got.total {
		t.Fatalf("%s: totals %d/%d Finish(%d), reference %d/%d Finish(%d)", name,
			got.cycles, got.records, got.got.total, ref.cycles, ref.records, ref.got.total)
	}
	if len(got.got.recs) != len(ref.got.recs) {
		t.Fatalf("%s: %d records, reference %d", name, len(got.got.recs), len(ref.got.recs))
	}
	for i := range ref.got.recs {
		if got.got.recs[i] != ref.got.recs[i] {
			t.Fatalf("%s: record %d differs from the reference:\n got %+v\nwant %+v", name, i, got.got.recs[i], ref.got.recs[i])
		}
	}
}

func replayWith(r *reader) (out replayed) {
	out.cycles, out.records, out.err = replay(r, &out.got)
	return out
}

func referenceReplay(data []byte) (out replayed) {
	out.cycles, out.records, out.err = refReplay(data, &out.got)
	return out
}

// alternatingReplay is Replay by a caller that decodes into two Records in
// turn, so no call passes the record the previous one filled.
func alternatingReplay(r *reader) (out replayed) {
	var recs [2]Record
	lastCommit := uint64(0)
	for i := 0; ; i++ {
		rec := &recs[i%2]
		if err := r.next(rec); err != nil {
			if !errors.Is(err, io.EOF) {
				out.err = err
				return out
			}
			break
		}
		out.records++
		out.got.OnCycle(rec)
		if rec.CommitCount > 0 {
			lastCommit = rec.Cycle
		}
	}
	out.cycles = lastCommit + 1
	out.got.Finish(out.cycles)
	return out
}

// TestRepeatShortcutMatchesReference replays traces with stall runs through
// every reader route — the slice, blocks of three records in memory and in
// a spill file, and sharded — and requires the reference decoder's records,
// totals and Finish from each. The slice reader must take the shortcut at
// least minRepeats times, so an edit that turns it off fails here.
func TestRepeatShortcutMatchesReference(t *testing.T) {
	for _, tc := range stallCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceReplay(tc.enc)
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			slice := newSliceReader(tc.enc)
			sameAsReference(t, "slice", ref, replayWith(slice))
			if slice.repeats < tc.minRepeats {
				t.Fatalf("slice reader served %d of %d records as repeats, want at least %d", slice.repeats, ref.records, tc.minRepeats)
			}
			blocks := recordBlocks(t, tc.enc, 3)
			sameAsReference(t, "blocks of 3", ref, replayWith(&reader{blocks: blocks}))
			sameAsReference(t, "spill file blocks of 3", ref, replayWith(fileReader(t, blocks)))
			alt := newSliceReader(tc.enc)
			sameAsReference(t, "two alternating Records", ref, alternatingReplay(alt))
			if alt.repeats != 0 {
				t.Fatalf("alternating caller served %d repeats; the shortcut needs the record the last decode filled", alt.repeats)
			}
			capt, err := NewCaptureFromEncoded(tc.enc, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var shards [2]replayed
			shards[0].cycles, shards[0].records, err = capt.ReplayShards(context.Background(), 7, &shards[0].got, &shards[1].got)
			if err != nil {
				t.Fatal(err)
			}
			shards[1].cycles, shards[1].records = shards[0].cycles, shards[0].records
			sameAsReference(t, "shard 0", ref, shards[0])
			sameAsReference(t, "shard 1", ref, shards[1])
		})
	}
}

// TestRepeatRunAcrossWindows replays one stall run long enough to straddle
// two capture block seals, in memory and spilled. Every route must match
// the reference; both capture Readers must keep taking the shortcut after
// each block switch drops it.
func TestRepeatRunAcrossWindows(t *testing.T) {
	const n = 150_000
	tr := (&stallTrace{}).commit(0x52000).stall(0x40000, n).commit(0x40000)
	enc := tr.encode()
	ref := referenceReplay(enc)
	for _, tc := range []struct {
		name  string
		limit int
	}{{"capture blocks", DefaultSpillBytes}, {"spilled blocks", 64}} {
		c := tr.capture(t, tc.limit)
		blocks := len(c.blocks) + len(c.fileBlocks)
		if blocks < 3 {
			t.Fatalf("%s: the run spans %d capture blocks, want at least 3", tc.name, blocks)
		}
		var got bytes.Buffer
		if _, err := c.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), enc) {
			t.Fatalf("%s: capture bytes differ from the reference encoding", tc.name)
		}
		r := c.reader()
		sameAsReference(t, tc.name, ref, replayWith(r))
		// One full decode to reach the run, one to remember it, then one
		// after each block switch.
		if want := uint64(n - 1 - blocks); r.repeats < want {
			t.Fatalf("%s: reader served %d repeats, want at least %d", tc.name, r.repeats, want)
		}
		var shards [2]replayed
		var err error
		shards[0].cycles, shards[0].records, err = c.ReplayShards(context.Background(), 0, &shards[0].got, &shards[1].got)
		if err != nil {
			t.Fatal(err)
		}
		shards[1].cycles, shards[1].records = shards[0].cycles, shards[0].records
		sameAsReference(t, tc.name+" shard 0", ref, shards[0])
		sameAsReference(t, tc.name+" shard 1", ref, shards[1])
	}
}

// commitBumper rewrites every committing record it sees, the way
// internal/check's corruptor test does, and remembers the counts it saw.
type commitBumper struct{ seen []uint8 }

func (c *commitBumper) OnCycle(r *Record) {
	if r.CommitCount > 0 {
		c.seen = append(c.seen, r.CommitCount)
		r.CommitCount++
	}
}

func (c *commitBumper) Finish(uint64) {}

// TestCommittingRecordsDecodeAfresh pins the one exception the Consumer
// contract allows: a committing record never serves as a repeat base, so a
// consumer that rewrites committing records never sees its own write come
// back, even when the same committing record repeats byte for byte.
func TestCommittingRecordsDecodeAfresh(t *testing.T) {
	tr := &stallTrace{}
	for i := 0; i < 10; i++ {
		tr.commit(0x40000)
	}
	var c commitBumper
	if _, _, err := ReplayBytes(tr.encode(), &c); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.seen {
		if n != 1 {
			t.Fatalf("committing record %d arrived with CommitCount %d, want 1", i, n)
		}
	}
}
