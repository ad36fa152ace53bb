package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		w.OnCycle(&recs[i])
	}
	w.Finish(cycle)
	return buf.Bytes(), recs
}

func TestReplayEmptyFileErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Finish(0)
	if _, _, err := Replay(NewReader(&buf), &CountingConsumer{}); err == nil {
		t.Fatal("empty trace replayed without error")
	}
}

func TestReplayDeliversAllRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint64(0); i < 10; i++ {
		r := sampleRecord(i)
		if i == 9 {
			r.Banks[1].Committing = true
			r.CommitCount = 1
		}
		w.OnCycle(&r)
	}
	w.Finish(10)
	cc := &CountingConsumer{}
	cycles, records, err := Replay(NewReader(&buf), cc)
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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint64(0); i < 5; i++ {
		r := sampleRecord(i)
		w.OnCycle(&r)
	}
	w.Finish(5)
	data := buf.Bytes()
	trunc := data[:len(data)-4]
	_, records, err := Replay(NewReader(bytes.NewReader(trunc)), &CountingConsumer{})
	if err == nil || err == io.EOF {
		t.Fatalf("truncated trace replayed cleanly after %d records", records)
	}
}

// readerKinds opens a Reader over data each way one is built: a window over
// the whole slice, a refilling window over a streamed source, and one over
// a source that yields a byte per Read, so the window refills on every byte.
var readerKinds = []struct {
	name string
	open func(data []byte) *Reader
}{
	{"slice", newSliceReader},
	{"streamed", func(data []byte) *Reader { return NewReader(bytes.NewReader(data)) }},
	{"one-byte", func(data []byte) *Reader { return NewReader(iotest.OneByteReader(bytes.NewReader(data))) }},
}

// TestReaderMalformedInput pins every Reader kind's verdict on degenerate
// input: an empty stream is an immediate io.EOF (which Replay reports as
// io.ErrUnexpectedEOF), a bad magic is an error, and a truncated stream
// errors before it can end cleanly.
func TestReaderMalformedInput(t *testing.T) {
	data, _ := syntheticTrace(64, 3)
	trunc := data[:len(data)-4]
	for _, kind := range readerKinds {
		var rec Record
		if err := kind.open(nil).Next(&rec); err != io.EOF {
			t.Fatalf("%s: empty input Next = %v, want io.EOF", kind.name, err)
		}
		if _, _, err := Replay(kind.open(nil), &collect{}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: empty input Replay = %v, want io.ErrUnexpectedEOF", kind.name, err)
		}
		for _, bad := range []string{"NOTATRACE", "TIPTRC"} {
			if err := kind.open([]byte(bad)).Next(&rec); err == nil || err == io.EOF {
				t.Fatalf("%s: bad magic %q accepted: %v", kind.name, bad, err)
			}
		}
		r := kind.open(trunc)
		var err error
		for err == nil {
			err = r.Next(&rec)
		}
		if err == io.EOF {
			t.Fatalf("%s: truncated trace decoded to a clean EOF", kind.name)
		}
	}
}

// errAfterReader yields its data, then fails with err.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReaderSourceErrorSticks checks a source read error surfaces from Next
// and keeps surfacing, instead of the window decoding past it.
func TestReaderSourceErrorSticks(t *testing.T) {
	data, _ := syntheticTrace(64, 3)
	injected := errors.New("injected read failure")
	r := NewReader(&errAfterReader{data: data[:len(data)/2], err: injected})
	var rec Record
	var err error
	for err == nil {
		err = r.Next(&rec)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("Next = %v, want the injected read failure", err)
	}
	if err := r.Next(&rec); !errors.Is(err, injected) {
		t.Fatalf("Next after the failure = %v, want it again", err)
	}
}

// pieceReader yields its data at most n bytes per Read (n <= 0: all of it).
type pieceReader struct {
	data []byte
	n    int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.n > 0 && len(p) > r.n {
		p = p[:r.n]
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestChunkIterMatchesReplayBytes is the chunking property test for the
// streamed Reader: whatever size the pieces its source delivers — 1-byte
// pieces, sizes that split records and commit bursts mid-group, and sizes
// near and past the window — Replay over the streamed trace delivers
// exactly the record sequence and totals ReplayBytes does over the slice.
func TestChunkIterMatchesReplayBytes(t *testing.T) {
	data, _ := syntheticTrace(501, 11)

	var ref collect
	wantCycles, wantRecords, err := ReplayBytes(data, &ref)
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{1, 2, 3, 5, 17, 100, 500, 501, 502, maxRecordBytes, readerWindow, len(data), 0}
	rng := xrand.New(23)
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 1+int(rng.Uint64n(600)))
	}
	for _, size := range sizes {
		var got collect
		cycles, records, err := Replay(NewReader(&pieceReader{data: data, n: size}), &got)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got.recs) != len(ref.recs) {
			t.Fatalf("size %d: %d records, want %d", size, len(got.recs), len(ref.recs))
		}
		for j := range got.recs {
			if got.recs[j] != ref.recs[j] {
				t.Fatalf("size %d: record %d differs:\n got %+v\nwant %+v", size, j, got.recs[j], ref.recs[j])
			}
		}
		if records != wantRecords || cycles != wantCycles {
			t.Fatalf("size %d: totals %d/%d, want %d/%d", size, cycles, records, wantCycles, wantRecords)
		}
		if got.total != wantCycles {
			t.Fatalf("size %d: Finish(%d), want %d", size, got.total, wantCycles)
		}
	}
}
