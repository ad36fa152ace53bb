package trace

import (
	"context"
	"errors"
	"io"
	"sync"
)

// streamRingDepth is the bounded ring's chunk capacity: the producing core
// can run at most streamRingDepth chunks ahead of the consumer before it
// blocks. Together with the per-shard channel depth this caps a streaming
// run's live chunk window — and therefore its peak memory — independently of
// trace length.
const streamRingDepth = 4

// errStreamAborted reports a producer stopped by the consumer side (a shard
// fault or cancelled replay), with no more specific root cause recorded.
var errStreamAborted = errors.New("trace: stream aborted by consumer")

// PilotStats summarises the pilot prefix of a streamed run: the cycles and
// committed instructions observed before the pilot boundary. When the run
// finished before the pilot window closed, the stats cover the whole run and
// Exact is set — calibration from them is then identical to the two-pass
// CalibrateInterval path.
type PilotStats struct {
	// Cycles is the pilot window's length in cycles (the whole run when
	// Exact).
	Cycles uint64
	// Committed is the number of instructions committed inside the window.
	Committed uint64
	// Exact reports the run ended before the pilot window did, making
	// Cycles/Committed exact run totals rather than a prefix sample.
	Exact bool
}

// StreamConfig parameterises a Stream.
type StreamConfig struct {
	// ChunkRecords bounds the records per chunk
	// (0 = DefaultChunkRecords).
	ChunkRecords int
	// RingDepth bounds the chunks buffered between producer and consumer
	// (0 = streamRingDepth).
	RingDepth int
	// PilotCycles is the pilot window length in cycles: records before the
	// boundary go to the pilot capture (not ring-bounded) so the consumer
	// can replay them once calibration has run, and PilotStats are
	// published when the boundary is crossed. Zero disables the pilot
	// stage entirely — every chunk flows through the bounded ring and the
	// consumer may start immediately.
	PilotCycles uint64
}

// Stream is the fused capture→replay pipe: the producer side is a Consumer
// the cycle-level core feeds directly, batching records into chunks pushed
// through a bounded ring; the consumer side broadcasts each chunk to replay
// shards while the simulation is still running. Every profiler observes the
// bit-identical record stream a capture-then-replay evaluation would have
// produced, but the whole trace is never resident: peak memory is the pilot
// capture plus the ring window, independent of run length.
//
// The pilot window is an ordinary Capture. The ring cannot be drained until
// calibration has run, so the records before the boundary are encoded into
// the capture, which keeps the prefix to a few bytes per cycle. The producer
// seals it with Finish at the boundary (or at Finish/Fail when the run ends
// inside the window), and the consumer replays it through Capture.Chunks
// before draining the ring. Past the boundary the ring is backpressured, so
// chunks carry decoded records directly — normalizeRecord launders the
// producer's stale flag-guarded fields exactly as an encode→decode round trip
// would, and the codec drops off the fused hot path.
//
// Lifecycle: exactly one producer goroutine calls OnCycle repeatedly and
// then exactly one of Finish (successful run) or Fail (aborted run); one
// consumer goroutine calls Pilot and then ReplayShards. The consumer may
// stop the producer early via Abort (ReplayShards does this on any error).
// The producer owns the pilot capture until the pilot boundary; ReplayShards
// Closes it once its chunks are drained.
type Stream struct {
	chunkRecords int
	pilotCycles  uint64

	ring      chan *Chunk
	abortCh   chan struct{}
	abortOnce sync.Once

	// Producer-owned state (no locking: single producer goroutine).
	cur            *Chunk
	committed      uint64
	pilotBuffering bool
	aborted        bool

	// pilotCapt and pilot are written by the producer before pilotReady
	// closes and read by the consumer only after; the close is the
	// happens-before edge.
	pilotCapt  *Capture
	pilot      PilotStats
	pilotReady chan struct{}

	// failErr is written before ring closes and read after it drains.
	failErr error

	chunkPool *sync.Pool
}

// NewStream returns an empty stream pipe.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.ChunkRecords <= 0 {
		cfg.ChunkRecords = DefaultChunkRecords
	}
	if cfg.RingDepth <= 0 {
		cfg.RingDepth = streamRingDepth
	}
	s := &Stream{
		chunkRecords:   cfg.ChunkRecords,
		pilotCycles:    cfg.PilotCycles,
		ring:           make(chan *Chunk, cfg.RingDepth),
		abortCh:        make(chan struct{}),
		pilotReady:     make(chan struct{}),
		pilotBuffering: cfg.PilotCycles > 0,
		chunkPool:      newChunkPool(cfg.ChunkRecords),
	}
	if cfg.PilotCycles == 0 {
		close(s.pilotReady)
	} else {
		s.pilotCapt = NewCapture(0)
	}
	return s
}

// OnCycle implements Consumer: before the pilot boundary the record goes to
// the pilot capture, after it records batch into chunks flushed into the
// ring. After an Abort it is a no-op, so a cancelled consumer never leaves
// the producing core blocked on a full ring.
func (s *Stream) OnCycle(r *Record) {
	if s.aborted {
		return
	}
	s.committed += uint64(r.CommitCount)
	if s.pilotBuffering {
		s.pilotCapt.OnCycle(r)
		if r.Cycle+1 >= s.pilotCycles {
			// Pilot boundary: consumers blocked in Pilot wake here,
			// typically long before the run ends.
			s.sealPilot(PilotStats{Cycles: r.Cycle + 1, Committed: s.committed})
		}
		return
	}
	if s.cur == nil {
		s.cur = s.chunkPool.Get().(*Chunk)
		s.cur.Records = s.cur.Records[:0]
	}
	recs := s.cur.Records[:len(s.cur.Records)+1]
	normalizeRecord(&recs[len(recs)-1], r)
	s.cur.Records = recs
	if len(recs) >= s.chunkRecords {
		s.flushDirect()
	}
}

// sealPilot finishes the pilot capture, publishes ps and hands both to the
// consumer.
func (s *Stream) sealPilot(ps PilotStats) {
	s.pilotCapt.Finish(ps.Cycles)
	s.pilot = ps
	s.pilotBuffering = false
	close(s.pilotReady)
}

// flushDirect hands the pending record chunk to the ring. The send blocks
// when the consumer lags (backpressure on the simulating core) and aborts
// cleanly when the consumer gives up.
func (s *Stream) flushDirect() {
	if s.cur == nil || len(s.cur.Records) == 0 {
		return
	}
	ck := s.cur
	s.cur = nil
	select {
	case s.ring <- ck:
	case <-s.abortCh:
		s.aborted = true
		ck.Records = ck.Records[:0]
		s.chunkPool.Put(ck)
	}
}

// Finish implements Consumer: flush the tail chunk and close the ring. A run
// shorter than the pilot window publishes exact whole-run pilot stats here.
func (s *Stream) Finish(totalCycles uint64) {
	s.flushDirect()
	s.closeProducer(nil, totalCycles)
}

// Fail ends the producer side after a run error (core fault, cancellation):
// the consumer drains what was produced and then observes err instead of a
// clean end of stream. Exactly one of Finish or Fail must be called.
func (s *Stream) Fail(err error) {
	if err == nil {
		err = errStreamAborted
	}
	s.closeProducer(err, 0)
}

func (s *Stream) closeProducer(err error, totalCycles uint64) {
	s.failErr = err
	if s.pilotBuffering {
		s.sealPilot(PilotStats{Cycles: totalCycles, Committed: s.committed, Exact: true})
	}
	close(s.ring)
}

// Abort stops the producer from the consumer side: pending and future ring
// sends return immediately and OnCycle becomes a no-op. The simulation
// driving the producer should also be cancelled; Abort only guarantees the
// producer can never block again.
func (s *Stream) Abort() {
	s.abortOnce.Do(func() { close(s.abortCh) })
}

// Pilot blocks until the pilot boundary (or the end of a run shorter than
// the pilot window) and returns the pilot stats. If the producer failed
// before producing them, the producer's error is returned.
func (s *Stream) Pilot(ctx context.Context) (PilotStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.pilotReady:
		if s.pilot.Exact && s.failErr != nil {
			return PilotStats{}, s.failErr
		}
		return s.pilot, nil
	case <-ctx.Done():
		return PilotStats{}, ctx.Err()
	}
}

// streamIter serves the stream's chunks exactly once: the pilot capture is
// decoded first, then live ring chunks (already record-form) pass straight
// through. It implements the chunk-source contract shardBroadcast drives.
type streamIter struct {
	s     *Stream
	ctx   context.Context
	pilot *ChunkIter // nil once the pilot capture is drained

	records    uint64
	lastCommit uint64
	done       bool
}

// Next returns the next chunk with its reference count set to refs. It
// returns io.EOF after the producer Finishes and everything is drained, the
// producer's error after a Fail, and ctx's error if the wait is cancelled.
func (it *streamIter) Next(refs int32) (*Chunk, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.pilot != nil {
		ck, err := it.pilot.Next(refs)
		if err == nil {
			return it.deliver(ck, refs), nil
		}
		// Drained: release the pilot's buffer while the run goes on.
		it.pilot = nil
		it.s.pilotCapt.Close()
		if err != io.EOF {
			it.done = true
			return nil, err
		}
	}
	select {
	case ck, ok := <-it.s.ring:
		if !ok {
			it.done = true
			if err := it.s.failErr; err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		return it.deliver(ck, refs), nil
	case <-it.ctx.Done():
		it.done = true
		return nil, it.ctx.Err()
	}
}

// deliver accounts the chunk's records and arms its reference count. Cycles
// are monotonic, so the youngest committing record in the chunk (if any)
// advances lastCommit.
func (it *streamIter) deliver(ck *Chunk, refs int32) *Chunk {
	it.records += uint64(len(ck.Records))
	for i := len(ck.Records) - 1; i >= 0; i-- {
		if ck.Records[i].CommitCount > 0 {
			it.lastCommit = ck.Records[i].Cycle
			break
		}
	}
	ck.refs.Store(refs)
	return ck
}

// newChunkPool builds the decoded-chunk pool shared by a replay's decoder
// and its shards; chunks recycle once every shard Releases them.
func newChunkPool(chunkRecords int) *sync.Pool {
	pool := &sync.Pool{}
	pool.New = func() any {
		return &Chunk{Records: make([]Record, 0, chunkRecords), pool: pool}
	}
	return pool
}
