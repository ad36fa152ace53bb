package trace

import (
	"errors"
	"fmt"
	"io"
)

// errReplayUnfinished rejects replay of a capture that never saw Finish.
var errReplayUnfinished = errors.New("trace: replay of unfinished capture")

// errCaptureFailed wraps the capture-side error that poisoned a capture.
func errCaptureFailed(err error) error {
	return fmt.Errorf("trace: capture failed: %w", err)
}

// badMagic reports a stream that starts with neither the TIPTRC2 nor the
// TIPTRC3 header.
func badMagic(prefix []byte) error {
	return fmt.Errorf("trace: bad magic %q", prefix)
}

// Replay streams a stored trace through consumers, exactly as the live core
// would have: one OnCycle per record, then Finish with the cycle count of
// the last committing record plus one. This is the workflow the paper uses
// to evaluate many profiler configurations from one simulation (§4) —
// capture the commit-stage trace once, then model profilers out-of-band.
func Replay(r *Reader, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	var rec Record
	lastCommit := uint64(0)
	for {
		if err := r.Next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, records, err
		}
		records++
		for _, c := range consumers {
			c.OnCycle(&rec)
		}
		if rec.CommitCount > 0 {
			lastCommit = rec.Cycle
		}
	}
	if records == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	cycles = lastCommit + 1
	for _, c := range consumers {
		c.Finish(cycles)
	}
	return cycles, records, nil
}

// ReplayBytes is Replay over an in-memory encoded trace: the Reader's
// window is the slice itself, so records decode straight off it.
func ReplayBytes(data []byte, consumers ...Consumer) (cycles uint64, records uint64, err error) {
	return Replay(newSliceReader(data), consumers...)
}
