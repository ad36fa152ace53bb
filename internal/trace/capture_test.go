package trace

import (
	"bytes"
	"os"
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
	c := NewCapture(0)
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
	c := NewCapture(64)
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
	c := NewCapture(64)
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
	c := NewCapture(0)
	defer c.Close()
	r := sampleRecord(0)
	c.OnCycle(&r)
	if _, _, err := c.Replay(&collect{}); err == nil {
		t.Fatal("replaying an unfinished capture must error")
	}
}

// TestCaptureMatchesDirectEncoding pins the capture's encoded bytes to a
// plain Writer over the same records: the capture is the codec plus storage,
// nothing more.
func TestCaptureMatchesDirectEncoding(t *testing.T) {
	c := NewCapture(0)
	defer c.Close()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 64; i++ {
		r := sampleRecord(uint64(i))
		c.OnCycle(&r)
		w.OnCycle(&r)
	}
	c.Finish(64)
	w.Finish(64)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.buf, buf.Bytes()) {
		t.Fatalf("capture bytes differ from direct encoding: %d vs %d bytes",
			len(c.buf), buf.Len())
	}
}

// TestReplayDecodeLoopAllocs bounds the decode loop's allocations: after the
// reader's one-time setup, decoding must not allocate per record, so the
// total for a whole stream stays a small constant.
func TestReplayDecodeLoopAllocs(t *testing.T) {
	c := NewCapture(0)
	defer c.Close()
	captureRecords(t, c, 4096)

	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := c.Replay(&nullConsumer{}); err != nil {
			t.Fatal(err)
		}
	})
	// One Reader, its Record and a few interface boxes — but nothing
	// proportional to the 4096 records.
	if allocs > 16 {
		t.Fatalf("replaying 4096 records allocated %.0f times; decode loop must not allocate per record", allocs)
	}
}

type nullConsumer struct{}

func (nullConsumer) OnCycle(*Record) {}
func (nullConsumer) Finish(uint64)   {}
