package trace

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
// inside the window), and every replay shard decodes it through its own
// reader before draining the ring. Past the boundary the ring is
// backpressured, so chunks carry decoded records directly — normalizeRecord
// launders the producer's stale flag-guarded fields exactly as an
// encode→decode round trip would, and the codec drops off the fused hot path.
//
// Lifecycle: exactly one producer goroutine calls OnCycle repeatedly and
// then exactly one of Finish (successful run) or Fail (aborted run); one
// consumer goroutine calls Pilot and then ReplayShards. The consumer may
// stop the producer early via Abort (ReplayShards does this on any error).
// The producer owns the pilot capture until the pilot boundary; the last
// replay shard to finish it Closes it.
type Stream struct {
	chunkRecords int
	pilotCycles  uint64

	ring      chan *chunk
	abortCh   chan struct{}
	abortOnce sync.Once

	// Producer-owned state (no locking: single producer goroutine).
	cur            *chunk
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
		ring:           make(chan *chunk, cfg.RingDepth),
		abortCh:        make(chan struct{}),
		pilotReady:     make(chan struct{}),
		pilotBuffering: cfg.PilotCycles > 0,
		chunkPool:      newChunkPool(cfg.ChunkRecords),
	}
	if cfg.PilotCycles == 0 {
		close(s.pilotReady)
	} else {
		s.pilotCapt = NewCapture()
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
	s.toRing(r, 1, false)
}

// OnRepeat implements Repeater: the pilot capture takes the part of the run
// up to the pilot boundary through Capture.OnRepeat, and past the pilot the
// run extends the ring's last slot (see chunk).
func (s *Stream) OnRepeat(r *Record, n uint64) {
	if s.aborted || n == 0 {
		return
	}
	s.committed += uint64(r.CommitCount) * n
	repeat := true
	if s.pilotBuffering {
		// The pilot takes every cycle up to the first at or past
		// pilotCycles-1, as OnCycle would one cycle at a time.
		seal := max(s.pilotCycles-1, r.Cycle-n+1)
		if r.Cycle < seal {
			s.pilotCapt.OnRepeat(r, n)
			return
		}
		k := seal - (r.Cycle - n)
		head := *r
		head.Cycle = seal
		s.pilotCapt.OnRepeat(&head, k)
		s.sealPilot(PilotStats{Cycles: seal + 1, Committed: s.committed - uint64(r.CommitCount)*(n-k)})
		if n -= k; n == 0 {
			return
		}
		// The ring holds no earlier slot for the rest to repeat.
		repeat = false
	}
	s.toRing(r, n, repeat)
}

// toRing appends n cycles of r, ending at r.Cycle, to the ring's current
// chunk, flushing each chunk that reaches chunkRecords cycles. With repeat,
// they repeat the chunk's last slot; otherwise, and whenever a chunk starts,
// the first of them is a fresh slot, normalized from r.
func (s *Stream) toRing(r *Record, n uint64, repeat bool) {
	for n > 0 {
		if s.cur == nil {
			s.cur = s.chunkPool.Get().(*chunk)
		}
		ck := s.cur
		k := min(n, uint64(s.chunkRecords-ck.cycles))
		last := r.Cycle - (n - k)
		if j := len(ck.records); !repeat || j == 0 {
			ck.records = ck.records[:j+1]
			ck.runs = append(ck.runs, 0)
			normalizeRecord(&ck.records[j], r)
			ck.records[j].Cycle = last - k + 1
			if k > 1 {
				ck.addRun(last, k-1)
			}
		} else {
			ck.addRun(last, k)
		}
		ck.cycles += int(k)
		n -= k
		repeat = true
		if ck.cycles >= s.chunkRecords {
			s.flushDirect()
			if s.aborted {
				return
			}
		}
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
	if s.cur == nil || len(s.cur.records) == 0 {
		return
	}
	ck := s.cur
	s.cur = nil
	select {
	case s.ring <- ck:
	case <-s.abortCh:
		s.aborted = true
		ck.reset()
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

// shardChanDepth is the per-shard chunk channel depth of a streamed replay:
// the ring fan-out runs at most shardChanDepth+1 chunks ahead of the slowest
// shard, which bounds the live chunk set (and therefore the pool).
const shardChanDepth = 4

// chunk is a run of consecutive ring records. A slot whose runs entry is
// n > 0 is a run: n more cycles of the slot before it, ending at its own
// Cycle, delivered as one OnRepeat. A quiet stretch then costs one slot
// copy, not one per cycle. cycles counts the records the slots stand for; a
// chunk is flushed at chunkRecords of them, so a replay shard still polls
// for faults every chunkRecords records. Every shard of a streamed replay
// observes the same chunk read-only; refs counts the outstanding readers and
// release returns the chunk to its pool once the last one is done, so the
// producer allocates a steady-state working set instead of one Record per
// cycle.
type chunk struct {
	records []Record
	runs    []uint64
	cycles  int
	refs    atomic.Int32
	pool    *sync.Pool
}

// addRun adds k cycles ending at last to the run in the chunk's last slot,
// opening the run with a copy of that slot if the slot is not one.
func (c *chunk) addRun(last, k uint64) {
	j := len(c.records) - 1
	if c.runs[j] == 0 {
		c.records = c.records[:j+2]
		c.records[j+1] = c.records[j]
		c.runs = append(c.runs, 0)
		j++
	}
	c.records[j].Cycle = last
	c.runs[j] += k
}

// release drops one reader reference, recycling the chunk when it was the
// last. Callers must not touch the chunk afterwards.
func (c *chunk) release() {
	if c.refs.Add(-1) == 0 {
		c.reset()
		c.pool.Put(c)
	}
}

// reset empties the chunk for reuse.
func (c *chunk) reset() {
	c.records, c.runs, c.cycles = c.records[:0], c.runs[:0], 0
}

// newChunkPool builds the ring's chunk pool; chunks recycle once every shard
// releases them.
func newChunkPool(chunkRecords int) *sync.Pool {
	pool := &sync.Pool{}
	pool.New = func() any {
		return &chunk{records: make([]Record, 0, chunkRecords), runs: make([]uint64, 0, chunkRecords), pool: pool}
	}
	return pool
}

// ReplayShards replays the live stream through consumer shards with the
// shard semantics, cycle accounting and error precedence of
// Capture.ReplayShards, but records are consumed as the producer emits them,
// so profilers run concurrently with the simulation and only the pilot
// capture plus the ring window is ever resident.
//
// It first waits for the pilot boundary (the caller typically already
// consumed it via Pilot to calibrate the shards being passed in). Each shard
// then replays the sealed pilot capture through its own reader, the last one
// to finish Closing it so its buffer is released while the run goes on, and
// then observes the ring's chunks, which the calling goroutine fans out to
// every shard over a channel of depth shardChanDepth. On any error it Aborts
// the stream so the producing core can never block on a full ring; the
// caller must still stop the producer itself (cancel its context) and wait
// for it. A Stream can be replayed at most once.
func (s *Stream) ReplayShards(ctx context.Context, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.pilotReady:
	case <-ctx.Done():
		s.Abort()
		return 0, 0, ctx.Err()
	}
	pilot := s.pilotCapt
	if pilot != nil {
		// Close is idempotent: this releases the pilot on an early stop,
		// after the last shard already did on a clean one.
		defer pilot.Close()
		if err := pilot.replayable(); err != nil {
			s.Abort()
			return 0, 0, err
		}
	}
	shards := newReplayShards(consumers)
	chans := make([]chan *chunk, len(shards))
	var abort atomic.Bool
	var pilotLeft atomic.Int32
	pilotLeft.Store(int32(len(shards)))
	var wg sync.WaitGroup
	for i := range shards {
		chans[i] = make(chan *chunk, shardChanDepth)
		wg.Add(1)
		go func(sh *replayShard, ch <-chan *chunk) {
			defer wg.Done()
			ok := true
			if pilot != nil {
				ok = sh.decode(ctx, pilot.reader(), s.chunkRecords, &abort)
				if pilotLeft.Add(-1) == 0 {
					pilot.Close()
				}
			}
			for ck := range ch {
				if ok {
					for j := range ck.records {
						if n := ck.runs[j]; n > 0 {
							sh.observeRun(&ck.records[j], n)
						} else {
							sh.observe(&ck.records[j])
						}
					}
					ok = sh.healthy(ctx, &abort)
				}
				// A stopped shard keeps draining its channel (without
				// touching the records) so the fan-out can never block
				// forever on a send, and so refcounts still reach zero.
				ck.release()
			}
		}(&shards[i], chans[i])
	}

	var stop error
fanOut:
	for !abort.Load() {
		select {
		case ck, open := <-s.ring:
			if !open {
				stop = s.failErr
				break fanOut
			}
			ck.refs.Store(int32(len(chans)))
			for _, ch := range chans {
				ch <- ck
			}
		case <-ctx.Done():
			stop = ctx.Err()
			break fanOut
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	cycles, records, err = finishShards(shards, stop)
	if err != nil {
		s.Abort()
	}
	return cycles, records, err
}
