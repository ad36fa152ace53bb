package trace

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// errReplayUnfinished rejects replay of a capture that never saw Finish.
var errReplayUnfinished = errors.New("trace: replay of unfinished capture")

// errCaptureFailed wraps the capture-side error that poisoned a capture.
func errCaptureFailed(err error) error {
	return fmt.Errorf("trace: capture failed: %w", err)
}

// badMagic reports a stream that does not start with the TIPTRC2 header.
func badMagic(prefix []byte) error {
	return fmt.Errorf("trace: bad magic %q", prefix)
}

// replay streams a stored trace through consumers, exactly as the live core
// would have: one OnCycle per record (a consumer that takes runs may get a
// stretch of repeats as one OnRepeat), then Finish with the cycle count of
// the last committing record plus one. This is the workflow the paper uses
// to evaluate many profiler configurations from one simulation (§4) —
// capture the commit-stage trace once, then model profilers out-of-band.
//
// It is the replay shard's loop on one shard: a single consumer is the
// shard's own, several share it through a Tee. Unlike ReplayShards it never
// polls a consumer's Faultable; a consumer's failure is its own to report.
func replay(r *reader, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	var c Consumer = &Tee{Consumers: consumers}
	if len(consumers) == 1 {
		c = consumers[0]
	}
	shards := []replayShard{newReplayShard(c)}
	var abort atomic.Bool
	shards[0].decode(context.Background(), r, DefaultChunkRecords, &abort)
	return finishShards(shards, nil)
}

// ReplayBytes replays an in-memory encoded trace, as Capture.Replay does a
// capture: the reader's one block is the slice itself, so records decode
// straight off it.
func ReplayBytes(data []byte, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	return replay(newSliceReader(data), consumers...)
}
