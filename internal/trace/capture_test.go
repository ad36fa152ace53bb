package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
)

// captureRecords streams n sample records into a capture and finishes it.
func captureRecords(t *testing.T, c *Capture, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := sampleRecord(uint64(i))
		c.OnCycle(&r)
	}
	c.Finish(uint64(n))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// collect replays a capture into a slice of record copies.
type collect struct {
	recs  []Record
	total uint64
}

func (c *collect) OnCycle(r *Record)    { c.recs = append(c.recs, *r) }
func (c *collect) Finish(cycles uint64) { c.total = cycles }

func TestCaptureInMemoryRoundTrip(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	captureRecords(t, c, 100)
	if c.Spilled() {
		t.Fatal("100 records should not spill with the default budget")
	}
	if c.Records() != 100 || c.Cycles() != 100 {
		t.Fatalf("Records=%d Cycles=%d, want 100/100", c.Records(), c.Cycles())
	}

	var got collect
	cycles, records, err := c.Replay(&got)
	if err != nil {
		t.Fatal(err)
	}
	if records != 100 || cycles != got.total {
		t.Fatalf("replay delivered %d records, Finish(%d) vs consumer %d", records, cycles, got.total)
	}
	for i, r := range got.recs {
		want := sampleRecord(uint64(i))
		if r != want {
			t.Fatalf("record %d differs after capture round-trip:\ngot  %+v\nwant %+v", i, r, want)
		}
	}
}

func TestCaptureSpillRoundTrip(t *testing.T) {
	// A tiny budget forces the spill path almost immediately.
	c := newCapture(64)
	captureRecords(t, c, 500)
	if !c.Spilled() {
		t.Fatal("a 64-byte budget must spill")
	}
	if c.Bytes() <= 64 {
		t.Fatalf("Bytes()=%d, want the full encoded size", c.Bytes())
	}

	// Replay twice: a capture is reusable and both replays must agree.
	for pass := 0; pass < 2; pass++ {
		var got collect
		_, records, err := c.Replay(&got)
		if err != nil {
			t.Fatal(err)
		}
		if records != 500 {
			t.Fatalf("pass %d: replayed %d records, want 500", pass, records)
		}
		for i, r := range got.recs {
			want := sampleRecord(uint64(i))
			if r != want {
				t.Fatalf("pass %d: record %d differs after spill round-trip", pass, i)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureCloseRemovesSpillFile(t *testing.T) {
	c := newCapture(64)
	captureRecords(t, c, 50)
	if !c.Spilled() {
		t.Fatal("expected a spilled capture")
	}
	name := c.f.Name()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("spill file %s survives Close (stat err: %v)", name, err)
	}
}

func TestCaptureReplayUnfinishedErrors(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	r := sampleRecord(0)
	c.OnCycle(&r)
	if _, _, err := c.Replay(&collect{}); err == nil {
		t.Fatal("replaying an unfinished capture must error")
	}
}

// blockTraceRecord is record i of a deterministic trace whose encoded size
// varies record to record — exceptions and dispatches carry multi-byte PC
// and FID deltas — so block seals land at irregular offsets.
func blockTraceRecord(i int) Record {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e5
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	r := sampleRecord(uint64(i)*3 + h%3)
	if h&(1<<8) == 0 {
		r.Banks[1].Committing = false
		r.CommitCount = 0
	}
	if h&(1<<9) != 0 {
		r.ExceptionRaised = true
		r.ExceptionPC = h >> 24
		r.ExceptionFID = h >> 40
		r.ExceptionInstIndex = int32(h>>12) & 63
	}
	if h&(1<<10) != 0 {
		r.DispatchValid = true
		r.DispatchPC = h >> 20
		r.DispatchFID = h >> 36
		r.DispatchInstIndex = int32(h>>14) & 63
	}
	return r
}

// blockTraceRecords is how many blockTraceRecord records span a little over
// three capture blocks.
const blockTraceRecords = 110_000

// encodeBlockTrace is the reference encoding of the first n
// blockTraceRecord records.
func encodeBlockTrace(n int) []byte {
	e := &encoder{}
	for i := 0; i < n; i++ {
		r := blockTraceRecord(i)
		e.OnCycle(&r)
	}
	return e.buf
}

// captureBlockTrace captures the first n blockTraceRecord records under a
// spill budget of limit bytes.
func captureBlockTrace(t *testing.T, limit, n int) *Capture {
	t.Helper()
	c := newCapture(limit)
	t.Cleanup(func() { c.Close() })
	for i := 0; i < n; i++ {
		r := blockTraceRecord(i)
		c.OnCycle(&r)
	}
	c.Finish(uint64(n))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// seqCheck is a consumer comparing each replayed record to blockTraceRecord
// of the same index, so multi-megabyte replays need not be held in memory.
type seqCheck struct {
	n     int
	bad   string
	total uint64
}

func (s *seqCheck) OnCycle(r *Record) {
	if s.bad == "" {
		if want := blockTraceRecord(s.n); *r != want {
			s.bad = fmt.Sprintf("record %d differs:\n got %+v\nwant %+v", s.n, *r, want)
		}
	}
	s.n++
}

func (s *seqCheck) Finish(cycles uint64) { s.total = cycles }

// verify fails unless the checker saw all n records intact and Finish(cycles).
func (s *seqCheck) verify(t *testing.T, what string, n int, cycles uint64) {
	t.Helper()
	if s.bad != "" {
		t.Fatalf("%s: %s", what, s.bad)
	}
	if s.n != n || s.total != cycles {
		t.Fatalf("%s: %d records, Finish(%d); want %d, Finish(%d)", what, s.n, s.total, n, cycles)
	}
}

// TestCaptureMatchesDirectEncoding pins the capture's encoded bytes to the
// reference encoding of the same records: the capture is the codec plus
// storage, nothing more, however many blocks the trace spans.
func TestCaptureMatchesDirectEncoding(t *testing.T) {
	want := encodeBlockTrace(blockTraceRecords)
	c := captureBlockTrace(t, DefaultSpillBytes, blockTraceRecords)
	if len(c.blocks) < 3 {
		t.Fatalf("trace spans %d blocks, want at least 3", len(c.blocks))
	}
	var got bytes.Buffer
	if _, err := c.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("capture bytes differ from direct encoding: %d vs %d bytes",
			got.Len(), len(want))
	}
}

// TestCaptureBlockBoundaries pins every replay route of a trace spanning
// more than three blocks to the same record sequence and Finish total: the
// capture in memory, and spilled mid-block, just before and exactly on a
// block boundary, and after two whole blocks. A spilled capture's file
// holds its blocks whole, and its reader reads them back one at a time.
func TestCaptureBlockBoundaries(t *testing.T) {
	const n = blockTraceRecords
	enc := encodeBlockTrace(n)
	ref := collectSeq(t, "reference encoding", n, func(s *seqCheck) (uint64, uint64, error) {
		return ReplayBytes(enc, s)
	})

	inMemory := captureBlockTrace(t, DefaultSpillBytes, n)
	if len(inMemory.blocks) < 3 {
		t.Fatalf("trace spans %d blocks, want at least 3", len(inMemory.blocks))
	}
	for i, b := range inMemory.blocks {
		if cap(b) != blockBytes {
			t.Fatalf("block %d has capacity %d, want %d", i, cap(b), blockBytes)
		}
		if i < len(inMemory.blocks)-1 && blockBytes-len(b) >= maxRecordBytes {
			t.Fatalf("block %d sealed with %d bytes free", i, blockBytes-len(b))
		}
	}
	b0, b1 := len(inMemory.blocks[0]), len(inMemory.blocks[1])

	for _, tc := range []struct {
		name  string
		spill int
	}{
		{"in-memory", 0},
		{"spill-mid-block", b0 + blockBytes/2},
		{"spill-before-boundary", b0 - 1},
		{"spill-on-boundary", b0},
		{"spill-after-two-blocks", b0 + b1 + 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := inMemory
			if tc.spill > 0 {
				c = captureBlockTrace(t, tc.spill, n)
				if !c.Spilled() {
					t.Fatal("capture did not spill")
				}
				sum := 0
				for i, l := range c.fileBlocks {
					if l > blockBytes || (i < len(c.fileBlocks)-1 && blockBytes-l >= maxRecordBytes) {
						t.Fatalf("file block %d holds %d bytes, want a whole block", i, l)
					}
					sum += l
				}
				if len(c.fileBlocks) < 3 || uint64(sum) != c.Bytes() {
					t.Fatalf("%d file blocks of %d bytes in all, want at least 3 holding all %d", len(c.fileBlocks), sum, c.Bytes())
				}
			}
			var out bytes.Buffer
			written, err := c.WriteTo(&out)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(written) != c.Bytes() || out.Len() != int(written) {
				t.Fatalf("WriteTo wrote %d (reported %d), Bytes() = %d", out.Len(), written, c.Bytes())
			}
			if !bytes.Equal(out.Bytes(), enc) {
				t.Fatalf("WriteTo bytes differ from the reference encoding: %d vs %d bytes", out.Len(), len(enc))
			}
			routes := []struct {
				name string
				run  func(s *seqCheck) (uint64, uint64, error)
			}{
				{"Replay", func(s *seqCheck) (uint64, uint64, error) { return c.Replay(s) }},
				{"ReplayBytes", func(s *seqCheck) (uint64, uint64, error) { return ReplayBytes(out.Bytes(), s) }},
				{"ReplayShards/1", func(s *seqCheck) (uint64, uint64, error) {
					return c.ReplayShards(context.Background(), 0, s)
				}},
			}
			for _, r := range routes {
				if got := collectSeq(t, r.name, n, r.run); got != ref {
					t.Fatalf("%s: Finish(%d), reference encoding Finish(%d)", r.name, got, ref)
				}
			}
			a, b := &seqCheck{}, &seqCheck{}
			cycles, records, err := c.ReplayShards(context.Background(), 0, a, b)
			if err != nil || records != n || cycles != ref {
				t.Fatalf("ReplayShards/2: %d records, %d cycles, err %v", records, cycles, err)
			}
			a.verify(t, "ReplayShards/2 shard 0", n, ref)
			b.verify(t, "ReplayShards/2 shard 1", n, ref)
		})
	}
}

// collectSeq runs one replay route into a seqCheck, checks the n records and
// the returned totals, and returns the Finish total.
func collectSeq(t *testing.T, what string, n int, run func(*seqCheck) (uint64, uint64, error)) uint64 {
	t.Helper()
	var s seqCheck
	cycles, records, err := run(&s)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if records != uint64(n) {
		t.Fatalf("%s: %d records, want %d", what, records, n)
	}
	s.verify(t, what, n, cycles)
	return cycles
}

// TestSpilledCaptureReadFailure closes the spill file under a finished
// capture, and cuts another's file short in its second block: Replay and a
// 2-shard ReplayShards must each end on the read error, without a panic and
// without delivering Finish as if the trace had ended there.
func TestSpilledCaptureReadFailure(t *testing.T) {
	closed := captureBlockTrace(t, 64, blockTraceRecords)
	if err := closed.f.Close(); err != nil {
		t.Fatal(err)
	}
	cut := captureBlockTrace(t, 64, blockTraceRecords)
	if err := cut.f.Truncate(int64(cut.fileBlocks[0] + cut.fileBlocks[1]/2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Capture
		want error
	}{{"closed", closed, os.ErrClosed}, {"cut short", cut, io.ErrUnexpectedEOF}} {
		var s seqCheck
		if _, _, err := tc.c.Replay(&s); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Replay = %v, want %v", tc.name, err, tc.want)
		}
		a, b := &seqCheck{}, &seqCheck{}
		if _, _, err := tc.c.ReplayShards(context.Background(), 0, a, b); !errors.Is(err, tc.want) {
			t.Fatalf("%s: ReplayShards/2 = %v, want %v", tc.name, err, tc.want)
		}
		for i, sc := range []*seqCheck{&s, a, b} {
			if sc.total != 0 || sc.bad != "" {
				t.Fatalf("%s: consumer %d: Finish(%d) after a read error, %q", tc.name, i, sc.total, sc.bad)
			}
		}
	}
}

// TestSpilledCaptureReleasesBlocks captures 10 MiB under a 3 MiB budget and
// checks that the spill left no sealed block behind and at most one block
// of capacity in memory — while capturing and once finished — rather than
// the pre-spill trace.
func TestSpilledCaptureReleasesBlocks(t *testing.T) {
	c := newCapture(3 << 20)
	defer c.Close()
	for i := 0; c.Bytes() < 10<<20; i++ {
		r := blockTraceRecord(i)
		c.OnCycle(&r)
	}
	held := func(when string) {
		t.Helper()
		if !c.Spilled() {
			t.Fatalf("%s: a 3 MiB budget must spill a 10 MiB capture", when)
		}
		if len(c.blocks) != 0 || c.memBytes != 0 {
			t.Fatalf("%s: spilled capture holds %d sealed blocks (%d bytes)", when, len(c.blocks), c.memBytes)
		}
		if cap(c.cur) > blockBytes {
			t.Fatalf("%s: spilled capture holds a %d-byte buffer, want at most one %d-byte block", when, cap(c.cur), blockBytes)
		}
	}
	held("capturing")
	c.Finish(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	held("finished")
}

// TestCaptureAllocBound bounds what capturing costs the heap: over 20 MiB of
// trace, everything allocated must stay within the encoded size plus two
// blocks — nothing is over-allocated or copied to grow.
func TestCaptureAllocBound(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; c.Bytes() < 20<<20; i++ {
		r := blockTraceRecord(i)
		c.OnCycle(&r)
	}
	c.Finish(0)
	runtime.ReadMemStats(&after)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Spilled() {
		t.Fatal("20 MiB must fit the default in-memory budget")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if bound := c.Bytes() + 2*blockBytes; alloc > bound {
		t.Fatalf("capturing %d bytes allocated %d, want at most %d (%.2fx the trace)",
			c.Bytes(), alloc, bound, float64(alloc)/float64(c.Bytes()))
	}
}

// TestReplayDecodeLoopAllocs bounds the decode loop's allocations: after the
// reader's one-time setup, decoding must not allocate per record, so the
// total for a whole stream stays a small constant.
func TestReplayDecodeLoopAllocs(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	captureRecords(t, c, 4096)

	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := c.Replay(&nullConsumer{}); err != nil {
			t.Fatal(err)
		}
	})
	// One reader, its Record and a few interface boxes — but nothing
	// proportional to the 4096 records.
	if allocs > 16 {
		t.Fatalf("replaying 4096 records allocated %.0f times; decode loop must not allocate per record", allocs)
	}
}

type nullConsumer struct{}

func (nullConsumer) OnCycle(*Record) {}
func (nullConsumer) Finish(uint64)   {}
