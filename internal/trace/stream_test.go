package trace

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// streamRecords runs a producer goroutine that feeds n sample records into
// the stream and then Finishes it, mirroring how a core run drives the
// producer side.
func streamRecords(s *Stream, n int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r := sampleRecord(uint64(i))
			s.OnCycle(&r)
		}
		s.Finish(uint64(n))
	}()
	return done
}

// TestStreamMatchesCaptureReplay pins the fused path to the capture path:
// every shard of a streamed replay sees the identical record sequence and
// Finish total a capture-then-replay of the same run produces, across shard
// counts, chunk sizes, and pilot windows.
func TestStreamMatchesCaptureReplay(t *testing.T) {
	const n = 777
	capt := newFinishedCapture(t, n)
	var ref collect
	wantCycles, wantRecords, err := capt.Replay(&ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3} {
		// chunk 0 stands for DefaultChunkRecords, NewStream's size.
		for _, chunk := range []int{1, 13, 256, 0} {
			// Pilot 1 seals the pilot capture on the first record, n on
			// the last one (Finish follows with nothing left to flush).
			for _, pilot := range []uint64{0, 1, 100, n, 10_000} {
				name := fmt.Sprintf("shards=%d/chunk=%d/pilot=%d", shards, chunk, pilot)
				t.Run(name, func(t *testing.T) {
					s := newStream(pilot, cmp.Or(chunk, DefaultChunkRecords), streamRingDepth)
					prodDone := streamRecords(s, n)
					ps, err := s.Pilot(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if pilot > 0 && pilot <= n {
						if ps.Exact || ps.Cycles != pilot || ps.Committed != pilot {
							t.Fatalf("pilot stats %+v, want exact prefix of %d", ps, pilot)
						}
					}
					if pilot > n {
						if !ps.Exact || ps.Cycles != n || ps.Committed != n {
							t.Fatalf("pilot stats %+v, want Exact whole-run totals", ps)
						}
					}
					cons := make([]*collect, shards)
					args := make([]Consumer, shards)
					for i := range cons {
						cons[i] = &collect{}
						args[i] = cons[i]
					}
					cycles, records, err := s.ReplayShards(context.Background(), args...)
					if err != nil {
						t.Fatal(err)
					}
					<-prodDone
					if cycles != wantCycles || records != wantRecords {
						t.Fatalf("totals %d/%d, want %d/%d", cycles, records, wantCycles, wantRecords)
					}
					for i, cc := range cons {
						if len(cc.recs) != len(ref.recs) {
							t.Fatalf("shard %d saw %d records, want %d", i, len(cc.recs), len(ref.recs))
						}
						for j := range cc.recs {
							if cc.recs[j] != ref.recs[j] {
								t.Fatalf("shard %d record %d differs", i, j)
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

// TestStreamProducerFail checks a failed run surfaces the producer's error
// from ReplayShards after the produced prefix drains, with no Finish.
func TestStreamProducerFail(t *testing.T) {
	s := newStream(0, 8, streamRingDepth)
	injected := errors.New("injected core failure")
	go func() {
		for i := 0; i < 100; i++ {
			r := sampleRecord(uint64(i))
			s.OnCycle(&r)
		}
		s.Fail(injected)
	}()
	cc := &collect{}
	_, records, err := s.ReplayShards(context.Background(), cc)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if cc.total != 0 {
		t.Fatal("Finish must not be delivered after a producer failure")
	}
	// The full chunks produced before the failure still drain to consumers.
	if records == 0 {
		t.Fatal("expected the produced prefix to drain before the error")
	}
}

// TestStreamPilotFailBeforeBoundary checks a producer failing inside the
// pilot window propagates its error from Pilot.
func TestStreamPilotFailBeforeBoundary(t *testing.T) {
	s := NewStream(StreamConfig{PilotCycles: 1 << 20})
	injected := errors.New("early core failure")
	r := sampleRecord(0)
	s.OnCycle(&r)
	s.Fail(injected)
	if _, err := s.Pilot(context.Background()); !errors.Is(err, injected) {
		t.Fatalf("Pilot err = %v, want the injected failure", err)
	}
}

// TestStreamReleasesUnreplayedPilot checks a spilled pilot capture leaves no
// temp file behind when the consumer never replays it: Pilot reports a
// producer failure, or the consumer's context is cancelled while it waits for
// calibration and the producer then fails or still finishes. The consumer
// side is runFused's (Pilot, ReplayShards, Abort on any error) and races the
// producer's end on its own goroutine. Each case runs with a whole-run pilot
// and a bounded window the run never reaches; a clean replay, which releases
// the pilot itself, is the control.
func TestStreamReleasesUnreplayedPilot(t *testing.T) {
	injected := errors.New("injected core failure")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		end     func(s *Stream)
		wantErr error
	}{
		{"producer-fails", context.Background(), func(s *Stream) { s.Fail(injected) }, injected},
		{"cancelled-then-fails", cancelled, func(s *Stream) { s.Fail(cancelled.Err()) }, context.Canceled},
		{"cancelled-then-finishes", cancelled, func(s *Stream) { s.Finish(100) }, context.Canceled},
		{"clean-replay", context.Background(), func(s *Stream) { s.Finish(100) }, nil},
	}
	for _, pilot := range []uint64{math.MaxUint64, 1 << 20} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/pilot=%d", tc.name, pilot), func(t *testing.T) {
				dir := t.TempDir()
				t.Setenv("TMPDIR", dir)
				spillFiles := func() []string {
					t.Helper()
					names, err := filepath.Glob(filepath.Join(dir, "tip-capture-*"))
					if err != nil {
						t.Fatal(err)
					}
					return names
				}
				s := NewStream(StreamConfig{PilotCycles: pilot})
				s.pilotCapt = newCapture(64)
				for i := 0; i < 100; i++ {
					r := sampleRecord(uint64(i))
					s.OnCycle(&r)
				}
				if files := spillFiles(); !s.pilotCapt.Spilled() || len(files) != 1 {
					t.Fatalf("pilot did not spill to one temp file: %v", files)
				}
				prodDone := make(chan struct{})
				go func() {
					defer close(prodDone)
					tc.end(s)
				}()
				_, err := s.Pilot(tc.ctx)
				if err == nil {
					_, _, err = s.ReplayShards(tc.ctx, &collect{})
				}
				if err != nil {
					s.Abort()
				}
				<-prodDone
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("consumer err = %v, want %v", err, tc.wantErr)
				}
				if left := spillFiles(); len(left) != 0 {
					t.Fatalf("spilled pilot left behind: %v", left)
				}
			})
		}
	}
}

// TestStreamConsumerFaultAborts checks a Faultable shard error aborts the
// streamed replay and unblocks the producer mid-run.
func TestStreamConsumerFaultAborts(t *testing.T) {
	s := newStream(0, 16, 2)
	prodDone := streamRecords(s, 100_000)
	bad := &faultingConsumer{failAt: 50}
	good := &collect{}
	_, _, err := s.ReplayShards(context.Background(), bad, good)
	if err == nil || err.Error() != "injected consumer failure" {
		t.Fatalf("err = %v, want the injected consumer failure", err)
	}
	if bad.finished || good.total != 0 {
		t.Fatal("Finish must not be delivered on an aborted streamed replay")
	}
	select {
	case <-prodDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the replay aborted")
	}
	if uint64(len(good.recs)) == 100_000 {
		t.Fatal("healthy shard consumed the entire stream despite the abort")
	}
}

// TestStreamContextCancelUnblocksProducer checks cancelling the consumer
// context aborts the stream so the producing goroutine can finish.
func TestStreamContextCancelUnblocksProducer(t *testing.T) {
	s := newStream(0, 16, 2)
	prodDone := streamRecords(s, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := &collect{}
	_, _, err := s.ReplayShards(ctx, cc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cc.total != 0 {
		t.Fatal("Finish must not be delivered on a cancelled streamed replay")
	}
	select {
	case <-prodDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the cancelled replay")
	}
}

// TestStreamEmptyRunErrors checks an empty stream reports the same
// io.ErrUnexpectedEOF as replaying an empty capture.
func TestStreamEmptyRunErrors(t *testing.T) {
	s := NewStream(StreamConfig{})
	s.Finish(0)
	_, _, err := s.ReplayShards(context.Background(), &collect{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestCaptureOnCycleAfterFinishSticky is the regression test for the sealed
// capture bug: records arriving after Finish previously appended to the
// encoded buffer, silently corrupting the trace.
func TestCaptureOnCycleAfterFinishSticky(t *testing.T) {
	c := NewCapture()
	defer c.Close()
	captureRecords(t, c, 10)
	wantBytes := c.Bytes()

	r := sampleRecord(10)
	c.OnCycle(&r)
	if err := c.Err(); err == nil {
		t.Fatal("OnCycle after Finish must set a sticky error")
	}
	if c.Bytes() != wantBytes || c.Records() != 10 {
		t.Fatal("late record mutated the sealed capture")
	}
	if _, _, err := c.Replay(&collect{}); err == nil {
		t.Fatal("replaying a poisoned capture must fail")
	}
}

// TestCaptureOnCycleAfterCloseSticky checks Close seals the capture the same
// way Finish does.
func TestCaptureOnCycleAfterCloseSticky(t *testing.T) {
	c := NewCapture()
	captureRecords(t, c, 10)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := sampleRecord(10)
	c.OnCycle(&r)
	if err := c.Err(); err == nil {
		t.Fatal("OnCycle after Close must set a sticky error")
	}
}

// TestAdoptedCaptureRejectsLateRecords pins the adopted-capture corruption
// scenario from the issue: a NewCaptureFromEncoded capture wraps the
// caller's persisted bytes, so a stray OnCycle used to append garbage into
// them.
func TestAdoptedCaptureRejectsLateRecords(t *testing.T) {
	src := NewCapture()
	defer src.Close()
	captureRecords(t, src, 25)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	persisted := append([]byte(nil), buf.Bytes()...)

	adopted, err := NewCaptureFromEncoded(buf.Bytes(), src.Records(), src.Cycles())
	if err != nil {
		t.Fatal(err)
	}
	r := sampleRecord(25)
	adopted.OnCycle(&r)
	if err := adopted.Err(); err == nil {
		t.Fatal("OnCycle on an adopted capture must set a sticky error")
	}
	if !bytes.Equal(buf.Bytes(), persisted) {
		t.Fatal("late record mutated the adopted encoded bytes")
	}
}

// TestNormalizeRecordMatchesCodec pins normalizeRecord to the codec: for
// randomized records — including deliberately stale payloads behind cleared
// guard flags, exactly what the producing core's reused record carries —
// normalization must equal an appendRecord→decodeRecord round trip.
func TestNormalizeRecordMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRecord := func(cycle uint64) Record {
		var r Record
		r.Cycle = cycle
		r.NumBanks = rng.Intn(MaxBanks + 1)
		r.HeadBank = uint8(rng.Intn(MaxBanks))
		r.CommitCount = uint8(rng.Intn(5))
		r.ROBEmpty = rng.Intn(2) == 0
		for i := 0; i < r.NumBanks; i++ {
			b := &r.Banks[i]
			b.Valid = rng.Intn(2) == 0
			b.Committing = rng.Intn(2) == 0
			b.Mispredicted = rng.Intn(2) == 0
			b.Flush = rng.Intn(2) == 0
			b.Exception = rng.Intn(2) == 0
			// Payloads are set whether or not Valid is — an invalid
			// bank's payload is stale garbage the codec must drop.
			b.PC = rng.Uint64() >> rng.Intn(40)
			b.FID = rng.Uint64() >> rng.Intn(40)
			b.InstIndex = int32(rng.Intn(1 << 20))
		}
		r.ExceptionRaised = rng.Intn(4) == 0
		r.ExceptionPC = rng.Uint64() >> 20
		r.ExceptionFID = rng.Uint64() >> 20
		r.ExceptionInstIndex = int32(rng.Intn(1 << 20))
		r.DispatchValid = rng.Intn(2) == 0
		r.DispatchPC = rng.Uint64() >> 20
		r.DispatchFID = rng.Uint64() >> 20
		r.DispatchInstIndex = int32(rng.Intn(1 << 20))
		r.AnyInFlight = rng.Intn(2) == 0
		r.YoungestFID = rng.Uint64() >> 20
		return r
	}
	var encSt, decSt codecState
	var rt Record
	for i := 0; i < 5000; i++ {
		r := randRecord(uint64(i))
		buf := appendRecord(make([]byte, 0, maxRecordBytes), &r, &encSt)
		if _, err := decodeRecord(buf, 0, &decSt, &rt); err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		var norm Record
		// Reuse norm across iterations would also work; a fresh zero value
		// is the stricter target since decodeRecord zeroes what it skips.
		normalizeRecord(&norm, &r)
		if norm != rt {
			t.Fatalf("record %d:\nnormalize: %+v\nroundtrip: %+v\ninput: %+v", i, norm, rt, r)
		}
	}
	// Normalizing over a dirty destination must scrub every stale field.
	dirty := randRecord(9999)
	for i := range dirty.Banks {
		dirty.Banks[i] = BankEntry{Valid: true, Committing: true, PC: ^uint64(0), FID: ^uint64(0), InstIndex: -1}
	}
	src := randRecord(10000)
	buf := appendRecord(make([]byte, 0, maxRecordBytes), &src, &encSt)
	if _, err := decodeRecord(buf, 0, &decSt, &rt); err != nil {
		t.Fatal(err)
	}
	normalizeRecord(&dirty, &src)
	if dirty != rt {
		t.Fatalf("dirty destination not scrubbed:\nnormalize: %+v\nroundtrip: %+v", dirty, rt)
	}
}
