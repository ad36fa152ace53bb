package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/tipprof/tip/internal/xrand"
)

// newFinishedCapture builds a finished in-memory capture of n sample records.
func newFinishedCapture(t *testing.T, n int) *Capture {
	t.Helper()
	c := NewCapture()
	t.Cleanup(func() { c.Close() })
	captureRecords(t, c, n)
	return c
}

// syntheticCaptures returns the synthetic trace as an adopted in-memory
// capture and as a spilled one (a 64-byte budget), the two sources a
// shard's reader decodes: the whole slice, or the spill file's block read
// into a buffer of its own.
func syntheticCaptures(t *testing.T, n int, seed uint64) (inMemory, spilled *Capture) {
	t.Helper()
	data, recs := syntheticTrace(n, seed)
	spilled = newCapture(64)
	t.Cleanup(func() { spilled.Close() })
	for i := range recs {
		spilled.OnCycle(&recs[i])
	}
	spilled.Finish(0)
	if err := spilled.Err(); err != nil || !spilled.Spilled() {
		t.Fatalf("spilled capture: err %v, Spilled() = %v", err, spilled.Spilled())
	}
	inMemory, err := NewCaptureFromEncoded(data, uint64(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return inMemory, spilled
}

// TestReplayShardsMatchesReplay pins the parallel path to the sequential
// one: every shard sees the identical record sequence and the identical
// Finish total, at several worker counts and poll intervals — 1-record
// intervals, intervals that split commit bursts, and intervals just short
// of, equal to and past the 501-record trace — from an in-memory capture
// and from a spilled one, whose shards read the spill file concurrently.
func TestReplayShardsMatchesReplay(t *testing.T) {
	inMemory, spilled := syntheticCaptures(t, 501, 11)
	var ref collect
	wantCycles, wantRecords, err := inMemory.Replay(&ref)
	if err != nil {
		t.Fatal(err)
	}
	if wantRecords != 501 {
		t.Fatalf("reference replay saw %d records, want 501", wantRecords)
	}
	chunks := []int{1, 2, 3, 5, 13, 17, 100, 256, 500, 501, 502, DefaultChunkRecords, 0}
	rng := xrand.New(23)
	for i := 0; i < 8; i++ {
		chunks = append(chunks, 1+int(rng.Uint64n(600)))
	}
	for _, src := range []struct {
		prefix string
		c      *Capture
	}{{"", inMemory}, {"spilled/", spilled}} {
		for _, shards := range []int{1, 2, 3, 8} {
			for _, chunk := range chunks {
				t.Run(fmt.Sprintf("%sshards=%d/chunk=%d", src.prefix, shards, chunk), func(t *testing.T) {
					cons := make([]*collect, shards)
					args := make([]Consumer, shards)
					for i := range cons {
						cons[i] = &collect{}
						args[i] = cons[i]
					}
					cycles, records, err := src.c.ReplayShards(context.Background(), chunk, args...)
					if err != nil {
						t.Fatal(err)
					}
					if cycles != wantCycles || records != wantRecords {
						t.Fatalf("totals %d/%d, want %d/%d", cycles, records, wantCycles, wantRecords)
					}
					for i, cc := range cons {
						if len(cc.recs) != len(ref.recs) {
							t.Fatalf("shard %d saw %d records, want %d", i, len(cc.recs), len(ref.recs))
						}
						for j := range cc.recs {
							if cc.recs[j] != ref.recs[j] {
								t.Fatalf("shard %d record %d differs:\n got %+v\nwant %+v", i, j, cc.recs[j], ref.recs[j])
							}
						}
						if cc.total != wantCycles {
							t.Fatalf("shard %d Finish(%d), want %d", i, cc.total, wantCycles)
						}
					}
				})
			}
		}
	}
}

// TestCaptureChunksMatchesReplay pins a capture's 2-shard replay, polled
// every 33 records, to Capture.Replay record for record, over a trace of
// more than three blocks: in memory, and spilled, where each shard reads
// the spill file's blocks itself.
func TestCaptureChunksMatchesReplay(t *testing.T) {
	const n = blockTraceRecords
	for _, tc := range []struct {
		name  string
		limit int
	}{
		{"in-memory", DefaultSpillBytes},
		{"spilled", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := captureBlockTrace(t, tc.limit, n)
			if blocks := len(c.blocks) + len(c.fileBlocks); blocks < 3 || (tc.limit == 64) != c.Spilled() {
				t.Fatalf("%d blocks, Spilled() = %v with budget %d", blocks, c.Spilled(), tc.limit)
			}
			want := collectSeq(t, "Replay", n, func(s *seqCheck) (uint64, uint64, error) { return c.Replay(s) })
			shards := []*seqCheck{{}, {}}
			cycles, records, err := c.ReplayShards(context.Background(), 33, shards[0], shards[1])
			if err != nil {
				t.Fatal(err)
			}
			if cycles != want || records != n {
				t.Fatalf("totals %d/%d, want %d/%d", cycles, records, want, n)
			}
			for i, got := range shards {
				got.verify(t, fmt.Sprintf("shard %d", i), n, want)
			}
		})
	}
}

// faultingConsumer fails (via the Faultable interface) once it has seen
// failAt records, closing failed (if set) when it does.
type faultingConsumer struct {
	seen     uint64
	failAt   uint64
	err      error
	failed   chan struct{}
	finished bool
}

func (f *faultingConsumer) OnCycle(*Record) {
	f.seen++
	if f.seen >= f.failAt && f.err == nil {
		f.err = errors.New("injected consumer failure")
		if f.failed != nil {
			close(f.failed)
		}
	}
}
func (f *faultingConsumer) Finish(uint64) { f.finished = true }
func (f *faultingConsumer) Err() error    { return f.err }

// gatedCollect collects records, but holds its shard at the first record
// until gate closes.
type gatedCollect struct {
	collect
	gate <-chan struct{}
}

func (g *gatedCollect) OnCycle(r *Record) {
	if len(g.recs) == 0 {
		<-g.gate
	}
	g.collect.OnCycle(r)
}

func TestReplayShardsAbortsOnConsumerFault(t *testing.T) {
	c := newFinishedCapture(t, 1<<15)
	bad := &faultingConsumer{failAt: 100, failed: make(chan struct{})}
	// The healthy shard starts only once the faulting one has failed, so
	// its own decode cannot race to the end of the capture before the
	// abort is raised.
	good := &gatedCollect{gate: bad.failed}
	_, _, err := c.ReplayShards(context.Background(), 64, bad, good)
	if err == nil || err.Error() != "injected consumer failure" {
		t.Fatalf("err = %v, want the injected consumer failure", err)
	}
	if bad.finished || good.total != 0 {
		t.Fatal("Finish must not be delivered on an aborted replay")
	}
	// Shards poll the shared abort flag every 64 records, so the healthy
	// shard stops well short of the full stream.
	if uint64(len(good.recs)) == c.Records() {
		t.Fatal("healthy shard consumed the entire stream despite the abort")
	}
}

func TestReplayShardsContextCancel(t *testing.T) {
	c := newFinishedCapture(t, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := &collect{}
	_, _, err := c.ReplayShards(ctx, 64, cc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cc.total != 0 {
		t.Fatal("Finish must not be delivered on a cancelled replay")
	}
}

func TestReplayShardsEmptyCaptureErrors(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	c.Finish(0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.ReplayShards(context.Background(), 0, &collect{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReplayShardsNilContext(t *testing.T) {
	c := newFinishedCapture(t, 32)
	cc := &collect{}
	cycles, records, err := c.ReplayShards(nil, 8, cc)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || records != 32 || cc.total != cycles {
		t.Fatalf("cycles=%d records=%d finish=%d", cycles, records, cc.total)
	}
}

func TestReplayShardsUnfinishedErrors(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	r := sampleRecord(0)
	c.OnCycle(&r)
	if _, _, err := c.ReplayShards(context.Background(), 8, &collect{}); !errors.Is(err, errReplayUnfinished) {
		t.Fatalf("err = %v, want the unfinished-capture error", err)
	}
}

// TestReplayShardsTruncatedCapture checks every shard of a replay over a
// truncated trace stops on the decode error, with no Finish delivered.
func TestReplayShardsTruncatedCapture(t *testing.T) {
	data, _ := syntheticTrace(64, 3)
	c, err := NewCaptureFromEncoded(data[:len(data)-4], 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		cons := make([]Consumer, shards)
		for i := range cons {
			cons[i] = &collect{}
		}
		_, _, err := c.ReplayShards(context.Background(), 16, cons...)
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("shards=%d: truncated capture replayed with err = %v", shards, err)
		}
		for i, cc := range cons {
			if cc.(*collect).total != 0 {
				t.Fatalf("shards=%d: shard %d got Finish after a decode error", shards, i)
			}
		}
	}
}
