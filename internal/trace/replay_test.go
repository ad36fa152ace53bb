package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/tipprof/tip/internal/xrand"
)

// syntheticTrace encodes n pseudo-random records with multi-cycle commit
// bursts, so chunk boundaries of every size land mid-burst somewhere. It
// returns the encoded bytes and the plaintext records.
func syntheticTrace(n int, seed uint64) ([]byte, []Record) {
	rng := xrand.New(seed)
	recs := make([]Record, n)
	cycle := uint64(0)
	burst := 0
	for i := range recs {
		r := sampleRecord(cycle)
		if burst == 0 && rng.Bool(0.3) {
			// Start a commit burst: 2-5 consecutive committing cycles.
			burst = 2 + int(rng.Uint64n(4))
		}
		if burst > 0 {
			burst--
			r.Banks[1].Committing = true
			r.CommitCount = 1
			if rng.Bool(0.3) {
				r.Banks[2].Committing = true
				r.CommitCount = 2
			}
		} else {
			r.Banks[1].Committing = false
			r.CommitCount = 0
		}
		if rng.Bool(0.1) {
			r.ExceptionRaised = true
			r.ExceptionPC = rng.Uint64n(1 << 40)
			r.ExceptionFID = rng.Uint64n(1 << 30)
			r.ExceptionInstIndex = int32(rng.Uint64n(64)) - 1
		}
		if rng.Bool(0.4) {
			r.DispatchValid = true
			r.DispatchPC = rng.Uint64n(1 << 40)
			r.DispatchFID = rng.Uint64n(1 << 30)
			r.DispatchInstIndex = int32(rng.Uint64n(64))
		}
		recs[i] = r
		cycle += 1 + rng.Uint64n(3)
	}
	return encodeRecords(recs), recs
}

func TestReplayEmptyFileErrors(t *testing.T) {
	if _, _, err := ReplayBytes(encodeRecords(nil), &CountingConsumer{}); err == nil {
		t.Fatal("empty trace replayed without error")
	}
}

func TestReplayDeliversAllRecords(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = sampleRecord(uint64(i))
		if i == 9 {
			recs[i].Banks[1].Committing = true
			recs[i].CommitCount = 1
		}
	}
	cc := &CountingConsumer{}
	cycles, records, err := ReplayBytes(encodeRecords(recs), cc)
	if err != nil {
		t.Fatal(err)
	}
	if records != 10 || cc.Cycles != 10 {
		t.Fatalf("replayed %d records, consumer saw %d", records, cc.Cycles)
	}
	if cycles != 10 { // last commit at cycle 9
		t.Fatalf("cycles = %d, want 10", cycles)
	}
	if !cc.Finished || cc.Total != 10 {
		t.Fatalf("finish not propagated: %+v", cc)
	}
}

func TestReplayTruncatedTrace(t *testing.T) {
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = sampleRecord(uint64(i))
	}
	data := encodeRecords(recs)
	trunc := data[:len(data)-4]
	_, records, err := ReplayBytes(trunc, &CountingConsumer{})
	if err == nil || err == io.EOF {
		t.Fatalf("truncated trace replayed cleanly after %d records", records)
	}
}

// recordBlocks splits an encoded trace into blocks of n records each (n <= 0:
// one block), the first also holding the magic header, the way a capture's
// blocks each end on a record boundary.
func recordBlocks(t *testing.T, data []byte, n int) [][]byte {
	t.Helper()
	err := sniffMagic(data)
	if err != nil {
		t.Fatal(err)
	}
	var st codecState
	var rec Record
	var blocks [][]byte
	start, pos, k := 0, len(formatMagic), 0
	for pos < len(data) {
		if pos, err = decodeRecord(data, pos, &st, &rec); err != nil {
			t.Fatal(err)
		}
		if k++; k == n {
			blocks = append(blocks, data[start:pos])
			start, k = pos, 0
		}
	}
	if start < len(data) {
		blocks = append(blocks, data[start:])
	}
	return blocks
}

// fileReader writes blocks one after another to a file, as a capture spills
// them, and returns a reader over that file that reads it back block by
// block.
func fileReader(t *testing.T, blocks [][]byte) *reader {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "blocks.trc"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	r := &reader{file: f}
	for _, b := range blocks {
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		r.fileBlocks = append(r.fileBlocks, len(b))
	}
	return r
}

// readerKinds opens a reader over data each way one is built: a slice, the
// slice as a capture's one in-memory block, and the slice as one block of a
// spill file.
var readerKinds = []struct {
	name string
	open func(t *testing.T, data []byte) *reader
}{
	{"slice", func(_ *testing.T, data []byte) *reader { return newSliceReader(data) }},
	{"block", func(_ *testing.T, data []byte) *reader { return &reader{blocks: [][]byte{data}} }},
	{"spill file", func(t *testing.T, data []byte) *reader {
		if len(data) == 0 {
			return fileReader(t, nil)
		}
		return fileReader(t, [][]byte{data})
	}},
}

// TestReaderMalformedInput pins every reader kind's verdict on degenerate
// input: an empty stream is an immediate io.EOF (which replay reports as
// io.ErrUnexpectedEOF), a bad magic is an error, and a truncated stream
// errors before it can end cleanly.
func TestReaderMalformedInput(t *testing.T) {
	data, _ := syntheticTrace(64, 3)
	trunc := data[:len(data)-4]
	for _, kind := range readerKinds {
		var rec Record
		if err := kind.open(t, nil).next(&rec); err != io.EOF {
			t.Fatalf("%s: empty input next = %v, want io.EOF", kind.name, err)
		}
		if _, _, err := replay(kind.open(t, nil), &collect{}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: empty input replay = %v, want io.ErrUnexpectedEOF", kind.name, err)
		}
		for _, bad := range []string{"NOTATRACE", "TIPTRC"} {
			if err := kind.open(t, []byte(bad)).next(&rec); err == nil || err == io.EOF {
				t.Fatalf("%s: bad magic %q accepted: %v", kind.name, bad, err)
			}
		}
		r := kind.open(t, trunc)
		var err error
		for err == nil {
			err = r.next(&rec)
		}
		if err == io.EOF {
			t.Fatalf("%s: truncated trace decoded to a clean EOF", kind.name)
		}
	}
}

// TestReaderSourceErrorSticks closes a spilled capture's file under a
// reader that has decoded part of its first block: the reader finishes that
// block, then the read of the next one fails, and the error surfaces from
// reader.next and keeps surfacing, instead of ending the trace early.
func TestReaderSourceErrorSticks(t *testing.T) {
	c := captureBlockTrace(t, 64, blockTraceRecords)
	if len(c.fileBlocks) < 3 {
		t.Fatalf("spilled capture has %d file blocks, want at least 3", len(c.fileBlocks))
	}
	r := c.reader()
	var rec Record
	if err := r.next(&rec); err != nil {
		t.Fatal(err)
	}
	if err := c.f.Close(); err != nil {
		t.Fatal(err)
	}
	n := 1
	var err error
	for err == nil {
		if err = r.next(&rec); err == nil {
			n++
		}
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("next = %v after %d records, want the closed file's read error", err, n)
	}
	if n >= blockTraceRecords {
		t.Fatalf("decoded all %d records from a closed file", n)
	}
	if err := r.next(&rec); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("next after the failure = %v, want it again", err)
	}
}

// TestChunkIterMatchesReplayBytes is the block property test for the
// reader: however a trace is cut into blocks on record boundaries — a record
// per block, sizes that split commit bursts, sizes near and past the trace —
// walking the blocks in memory and reading them back from a spill file
// delivers exactly the record sequence and totals ReplayBytes does over the
// slice.
func TestChunkIterMatchesReplayBytes(t *testing.T) {
	data, _ := syntheticTrace(501, 11)

	var ref collect
	wantCycles, wantRecords, err := ReplayBytes(data, &ref)
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{1, 2, 3, 5, 17, 100, 500, 501, 502, 0}
	rng := xrand.New(23)
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 1+int(rng.Uint64n(600)))
	}
	for _, size := range sizes {
		blocks := recordBlocks(t, data, size)
		for _, route := range []struct {
			name string
			r    *reader
		}{{"blocks", &reader{blocks: blocks}}, {"spill file", fileReader(t, blocks)}} {
			var got collect
			cycles, records, err := replay(route.r, &got)
			if err != nil {
				t.Fatalf("%s of %d records: %v", route.name, size, err)
			}
			if len(got.recs) != len(ref.recs) {
				t.Fatalf("%s of %d records: %d records, want %d", route.name, size, len(got.recs), len(ref.recs))
			}
			for j := range got.recs {
				if got.recs[j] != ref.recs[j] {
					t.Fatalf("%s of %d records: record %d differs:\n got %+v\nwant %+v", route.name, size, j, got.recs[j], ref.recs[j])
				}
			}
			if records != wantRecords || cycles != wantCycles {
				t.Fatalf("%s of %d records: totals %d/%d, want %d/%d", route.name, size, cycles, records, wantCycles, wantRecords)
			}
			if got.total != wantCycles {
				t.Fatalf("%s of %d records: Finish(%d), want %d", route.name, size, got.total, wantCycles)
			}
		}
	}
}
