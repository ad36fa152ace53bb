package trace

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// shardChanDepth is the per-worker chunk channel depth. The decoder runs at
// most shardChanDepth+1 chunks ahead of the slowest worker, which bounds the
// live chunk set (and therefore the pool) of a sharded replay.
const shardChanDepth = 4

// Faultable is a consumer that can fail mid-stream (a spilling capture, a
// trace writer, a profiler sink with an I/O error). Sharded replay polls it
// between chunks and aborts the whole replay on the first reported error,
// instead of streaming millions of records into a consumer that already
// failed.
type Faultable interface {
	Err() error
}

// chunkSource yields decoded chunks with their reference count pre-set; it
// is the seam shared by capture replay (ChunkIter) and streaming replay
// (streamIter).
type chunkSource interface {
	Next(refs int32) (*Chunk, error)
}

// shardBroadcast drives the decode-once broadcast shared by Capture and
// Stream replay: one goroutine per shard, per-shard channels of depth
// shardChanDepth, every chunk delivered to every shard exactly once. It
// returns the first shard consumer error (the root cause when both fail) and
// the decode/context error; Finish is never delivered here — the caller owns
// the success epilogue.
func shardBroadcast(ctx context.Context, src chunkSource, shards []Consumer) (workerErr, decodeErr error) {
	w := len(shards)
	chans := make([]chan *Chunk, w)
	for i := range chans {
		chans[i] = make(chan *Chunk, shardChanDepth)
	}
	workerErrs := make([]error, w)
	var abort atomic.Bool
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard Consumer, ch <-chan *Chunk) {
			defer wg.Done()
			f, _ := shard.(Faultable)
			for ck := range ch {
				if workerErrs[i] == nil {
					for j := range ck.Records {
						shard.OnCycle(&ck.Records[j])
					}
					if f != nil {
						if e := f.Err(); e != nil {
							workerErrs[i] = e
							abort.Store(true)
						}
					}
				}
				// An errored worker keeps draining its channel (without
				// touching the records) so the decoder can never block
				// forever on a send, and so chunk refcounts still reach
				// zero.
				ck.Release()
			}
		}(i, shard, chans[i])
	}

	for {
		if e := ctx.Err(); e != nil {
			decodeErr = e
			break
		}
		if abort.Load() {
			break
		}
		ck, e := src.Next(int32(w))
		if e == io.EOF {
			break
		}
		if e != nil {
			decodeErr = e
			break
		}
		for _, ch := range chans {
			ch <- ck
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	// A worker's consumer failure is the root cause; decode/context errors
	// come second (an abort often cancels the decode as a side effect).
	for _, e := range workerErrs {
		if e != nil {
			return e, decodeErr
		}
	}
	return nil, decodeErr
}

// ReplayShards replays the captured trace through several consumer shards
// in parallel: the trace is decoded exactly once into pooled record chunks,
// and every chunk is broadcast to one goroutine per shard. Each shard
// observes the complete stream — the same records, in the same order, with
// one OnCycle per record and a final Finish — so any per-shard result is
// byte-identical to a sequential Replay of the same consumers; sharding
// chooses only how the consumer work is spread over cores.
//
// The decode runs on the calling goroutine and applies backpressure: a slow
// shard stalls the decoder after shardChanDepth buffered chunks. Replay
// stops early when ctx is cancelled, when decoding fails, or when a shard
// implementing Faultable reports an error; Finish is not delivered on any
// early stop. With a single shard and a background context this is
// equivalent to Replay, minus the chunk indirection.
func (c *Capture) ReplayShards(ctx context.Context, chunkRecords int, shards ...Consumer) (cycles uint64, records uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	it, err := c.Chunks(chunkRecords)
	if err != nil {
		return 0, 0, err
	}

	workerErr, decodeErr := shardBroadcast(ctx, it, shards)
	cycles = it.Cycles()
	records = it.Records()
	if workerErr != nil {
		return 0, records, workerErr
	}
	if decodeErr != nil {
		return 0, records, decodeErr
	}
	if records == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	for _, shard := range shards {
		shard.Finish(cycles)
	}
	return cycles, records, nil
}

// ReplayShards broadcasts the live stream through consumer shards exactly
// like Capture.ReplayShards broadcasts a finished capture — same shard
// semantics, same cycle accounting, same error precedence — but chunks are
// consumed as the producer emits them, so profilers run concurrently with
// the simulation and only the pilot capture plus the ring window is ever
// resident.
//
// It first waits for the pilot boundary (the caller typically already
// consumed it via Pilot to calibrate the shards being passed in). On any
// error it Aborts the stream so the producing core can never block on a full
// ring; the caller must still stop the producer itself (cancel its context)
// and wait for it. A Stream can be replayed at most once.
func (s *Stream) ReplayShards(ctx context.Context, shards ...Consumer) (cycles uint64, records uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.pilotReady:
	case <-ctx.Done():
		s.Abort()
		return 0, 0, ctx.Err()
	}
	it := &streamIter{s: s, ctx: ctx}
	if s.pilotCapt != nil {
		// The consumer owns the sealed pilot capture now; Close is
		// idempotent, so an early drain has released it already.
		defer s.pilotCapt.Close()
		var err error
		if it.pilot, err = s.pilotCapt.Chunks(s.chunkRecords); err != nil {
			s.Abort()
			return 0, 0, err
		}
	}
	workerErr, decodeErr := shardBroadcast(ctx, it, shards)
	cycles = it.lastCommit + 1
	records = it.records
	if workerErr != nil || decodeErr != nil {
		s.Abort()
		if workerErr != nil {
			return 0, records, workerErr
		}
		return 0, records, decodeErr
	}
	if records == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	for _, shard := range shards {
		shard.Finish(cycles)
	}
	return cycles, records, nil
}
