package trace

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultChunkRecords is how many records a replay shard observes between
// polls of its context and its consumer's Faultable, and the record count of
// a Stream ring chunk. At roughly 350 bytes per decoded Record a ring chunk
// is a few hundred kilobytes: large enough that per-chunk synchronization
// vanishes against the consumer work, small enough that a handful of
// in-flight chunks keep a streamed replay's footprint modest.
const DefaultChunkRecords = 1024

// Faultable is a consumer that can fail mid-stream (a spilling capture, a
// profiler sink with an I/O error). Sharded replay polls it
// between chunks and aborts the whole replay on the first reported error,
// instead of streaming millions of records into a consumer that already
// failed.
type Faultable interface {
	Err() error
}

// replayShard is one replay worker: its consumer, how far into the stream it
// got, and the error it stopped on.
type replayShard struct {
	c Consumer
	f Faultable
	// rep is c as a Repeater, when it takes runs: the shard then hands it
	// each stretch of repeated records in one OnRepeat. Any other consumer
	// gets one OnCycle per record.
	rep Repeater
	// scratch is the per-cycle copy a ring run is replayed on for a
	// consumer that does not take runs.
	scratch    Record
	records    uint64
	lastCommit uint64
	// fault is the shard consumer's own failure: the root cause of any
	// replay it stops.
	fault error
	// stop is a decode, producer or context error.
	stop error
}

// newReplayShards wraps each consumer in a shard; no consumers still makes
// one shard, so a replay without consumers decodes and counts the stream.
func newReplayShards(consumers []Consumer) []replayShard {
	if len(consumers) == 0 {
		consumers = []Consumer{&Tee{}}
	}
	shards := make([]replayShard, len(consumers))
	for i, c := range consumers {
		shards[i] = newReplayShard(c)
		shards[i].f, _ = c.(Faultable)
	}
	return shards
}

// newReplayShard wraps c in a shard that does not poll c's faults.
func newReplayShard(c Consumer) replayShard {
	rep, _ := c.(Repeater)
	return replayShard{c: c, rep: rep}
}

// observe delivers one record to the shard's consumer.
func (sh *replayShard) observe(rec *Record) {
	sh.c.OnCycle(rec)
	sh.records++
	if rec.CommitCount > 0 {
		sh.lastCommit = rec.Cycle
	}
}

// observeRun delivers a run of n repeated records ending at rec.Cycle: in
// one OnRepeat when the consumer takes runs, else cycle by cycle on the
// shard's scratch copy, since rec may be a ring slot other shards read.
func (sh *replayShard) observeRun(rec *Record, n uint64) {
	if sh.rep != nil {
		sh.rep.OnRepeat(rec, n)
	} else {
		Repeat(sh.c, rec, n, &sh.scratch)
	}
	sh.records += n
	if rec.CommitCount > 0 {
		sh.lastCommit = rec.Cycle
	}
}

// healthy is the between-chunks poll: it records the shard consumer's fault
// (raising abort for the other shards) or ctx's error, and reports whether
// the shard should go on — false also once another shard raised abort.
func (sh *replayShard) healthy(ctx context.Context, abort *atomic.Bool) bool {
	if sh.f != nil {
		if err := sh.f.Err(); err != nil {
			sh.fault = err
			abort.Store(true)
			return false
		}
	}
	if err := ctx.Err(); err != nil {
		sh.stop = err
		return false
	}
	return !abort.Load()
}

// decode replays the trace r into the shard, polling healthy every n
// records and once more at the end of the trace. A consumer that takes runs
// gets each stretch of repeats in one call, cut at the next poll so a fault
// still stops the replay within n records. A decode error raises abort. It
// reports whether the shard reached the end of r healthy.
func (sh *replayShard) decode(ctx context.Context, r *reader, n int, abort *atomic.Bool) bool {
	var rec Record
	for {
		if !sh.healthy(ctx, abort) {
			return false
		}
		for i := 0; i < n; i++ {
			if sh.rep != nil {
				if k := r.run(&rec, n-i); k > 0 {
					sh.observeRun(&rec, uint64(k))
					i += k - 1
					continue
				}
			}
			if err := r.next(&rec); err == io.EOF {
				return sh.healthy(ctx, abort)
			} else if err != nil {
				sh.stop = err
				abort.Store(true)
				return false
			}
			sh.observe(&rec)
		}
	}
}

// finishShards folds the shards' outcomes into one replay result. A shard
// consumer's fault is the root cause and wins; stop (the fan-out's own
// error, if any) and the shards' decode or context errors come second, since
// an abort often cancels the rest as a side effect. Only a clean replay
// delivers Finish, to every shard, with the cycle of the last committing
// record plus one.
func finishShards(shards []replayShard, stop error) (cycles uint64, records uint64, err error) {
	for i := range shards {
		records = max(records, shards[i].records)
	}
	for i := range shards {
		if shards[i].fault != nil {
			return 0, records, shards[i].fault
		}
	}
	for i := 0; stop == nil && i < len(shards); i++ {
		stop = shards[i].stop
	}
	if stop != nil {
		return 0, records, stop
	}
	if records == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	cycles = shards[0].lastCommit + 1
	for i := range shards {
		shards[i].c.Finish(cycles)
	}
	return cycles, records, nil
}

// ReplayShards replays the captured trace through several consumer shards
// in parallel. Each shard decodes the whole capture itself, from byte 0 of
// the immutable capture bytes into one reusable Record, on its own
// goroutine, so each shard observes the complete stream — the same records,
// in the same order, with one OnCycle per record and a final Finish — and
// any per-shard result is byte-identical to a sequential Replay of the same
// consumers; sharding chooses only how the consumer work is spread over
// cores. A single shard runs on the calling goroutine.
//
// Every chunkRecords records (0 = DefaultChunkRecords) a shard polls ctx and,
// if its consumer implements Faultable, the consumer's Err. Replay stops
// early when ctx is cancelled, when decoding fails, or when any shard's
// consumer reports an error, which stops the other shards at their next
// poll; Finish is not delivered on any early stop. A shard consumer's error
// takes precedence over decode and context errors.
func (c *Capture) ReplayShards(ctx context.Context, chunkRecords int, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if chunkRecords <= 0 {
		chunkRecords = DefaultChunkRecords
	}
	if err := c.replayable(); err != nil {
		return 0, 0, err
	}
	shards := newReplayShards(consumers)
	var abort atomic.Bool
	if len(shards) == 1 {
		shards[0].decode(ctx, c.reader(), chunkRecords, &abort)
	} else {
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(sh *replayShard) {
				defer wg.Done()
				sh.decode(ctx, c.reader(), chunkRecords, &abort)
			}(&shards[i])
		}
		wg.Wait()
	}
	return finishShards(shards, nil)
}
