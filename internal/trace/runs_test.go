package trace

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// runCollect is a collect that takes runs. It expands each OnRepeat into
// the records n OnCycle calls would have delivered, after checking the
// Repeater contract: r is the last record delivered, unchanged but for its
// Cycle, which is n cycles later. It records a broken contract in bad, so
// it can run on a shard goroutine.
type runCollect struct {
	collect
	runs    int    // OnRepeat calls
	longest uint64 // longest run
	bad     error
}

func (c *runCollect) OnRepeat(r *Record, n uint64) {
	if len(c.recs) == 0 {
		c.bad = errors.New("OnRepeat before any record")
		return
	}
	last := c.recs[len(c.recs)-1]
	want := last
	want.Cycle = last.Cycle + n
	if c.bad == nil && (n == 0 || *r != want) {
		c.bad = fmt.Errorf("OnRepeat(cycle %d, %d) does not repeat the record at cycle %d", r.Cycle, n, last.Cycle)
	}
	c.runs++
	c.longest = max(c.longest, n)
	for i := uint64(1); i <= n; i++ {
		rec := last
		rec.Cycle = last.Cycle + i
		c.recs = append(c.recs, rec)
	}
}

// runReplayed is one run-taking route's outcome.
type runReplayed struct {
	got             runCollect
	cycles, records uint64
	err             error
}

func (r *runReplayed) replayed() replayed {
	return replayed{got: r.got.collect, cycles: r.cycles, records: r.records, err: errors.Join(r.err, r.got.bad)}
}

func runReplayWith(r *reader) (out runReplayed) {
	out.cycles, out.records, out.err = replay(r, &out.got)
	return out
}

// TestRunsMatchReference replays the stall cases through a consumer that
// takes runs, over every reader route and sharded: it must see the
// reference decoder's records, and on a stall of 100 the slice reader must
// hand it runs. A cycle delta other than 1 (a skipped cycle) never forms a
// run.
func TestRunsMatchReference(t *testing.T) {
	for _, tc := range stallCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceReplay(tc.enc)
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			slice := runReplayWith(newSliceReader(tc.enc))
			sameAsReference(t, "slice", ref, slice.replayed())
			switch {
			case tc.minRepeats >= 98 && slice.got.longest < 90:
				t.Fatalf("longest run %d, want the stall of 100 as about one run", slice.got.longest)
			case tc.minRepeats == 0 && slice.got.runs != 0:
				t.Fatalf("%d runs where no record repeats under a cycle delta of 1", slice.got.runs)
			}
			blocks := recordBlocks(t, tc.enc, 3)
			inBlocks := runReplayWith(&reader{blocks: blocks})
			sameAsReference(t, "blocks of 3", ref, inBlocks.replayed())
			inFile := runReplayWith(fileReader(t, blocks))
			sameAsReference(t, "spill file blocks of 3", ref, inFile.replayed())
			capt, err := NewCaptureFromEncoded(tc.enc, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var shards [2]runReplayed
			shards[0].cycles, shards[0].records, err = capt.ReplayShards(context.Background(), 7, &shards[0].got, &shards[1].got)
			if err != nil {
				t.Fatal(err)
			}
			shards[1].cycles, shards[1].records = shards[0].cycles, shards[0].records
			sameAsReference(t, "shard 0", ref, shards[0].replayed())
			sameAsReference(t, "shard 1", ref, shards[1].replayed())
			if shards[0].got.longest > 7 {
				t.Fatalf("a run of %d records crosses a 7-record poll", shards[0].got.longest)
			}
		})
	}
}

// TestDelta2RepeatsAreNotRuns replays a trace that records every other
// cycle: its records repeat byte for byte under a cycle delta of 2, which
// reader.next serves from the repeat shortcut one record at a time, never as a
// run.
func TestDelta2RepeatsAreNotRuns(t *testing.T) {
	tr := &stallTrace{}
	tr.commit(0x52000)
	for i := 0; i < 50; i++ {
		tr.skip(1).stall(0x40000, 1)
	}
	tr.commit(0x40000)
	enc := tr.encode()
	ref := referenceReplay(enc)
	r := newSliceReader(enc)
	got := runReplayWith(r)
	sameAsReference(t, "slice", ref, got.replayed())
	if got.got.runs != 0 {
		t.Fatalf("%d runs over a cycle delta of 2", got.got.runs)
	}
	if r.repeats < 48 {
		t.Fatalf("%d records served as repeats, want at least 48", r.repeats)
	}
}

// TestRunsAcrossBlocks replays one stall long enough to straddle two
// capture block seals through a consumer that takes runs, in memory and
// spilled: each route must match the reference, and the run is cut only at
// a block seal or a poll.
func TestRunsAcrossBlocks(t *testing.T) {
	const n = 150_000
	tr := (&stallTrace{}).commit(0x52000).stall(0x40000, n).commit(0x40000)
	ref := referenceReplay(tr.encode())
	for _, tc := range []struct {
		name  string
		limit int
	}{{"capture blocks", DefaultSpillBytes}, {"spilled blocks", 64}} {
		c := tr.capture(t, tc.limit)
		blocks := len(c.blocks) + len(c.fileBlocks)
		if blocks < 3 {
			t.Fatalf("%s: the run spans %d capture blocks, want at least 3", tc.name, blocks)
		}
		got := runReplayWith(c.reader())
		sameAsReference(t, tc.name, ref, got.replayed())
		// Each poll cuts the run, and so does each block seal.
		if polls := n/DefaultChunkRecords + blocks + 2; got.got.runs > polls {
			t.Fatalf("%s: reader gave %d runs, want at most %d", tc.name, got.got.runs, polls)
		}
		var shards [2]runReplayed
		var err error
		shards[0].cycles, shards[0].records, err = c.ReplayShards(context.Background(), 0, &shards[0].got, &shards[1].got)
		if err != nil {
			t.Fatal(err)
		}
		shards[1].cycles, shards[1].records = shards[0].cycles, shards[0].records
		sameAsReference(t, tc.name+" shard 0", ref, shards[0].replayed())
		sameAsReference(t, tc.name+" shard 1", ref, shards[1].replayed())
	}
}

// pollCounter takes runs and records, at each fault poll, how many records
// it has seen; with faultAt > 0 it reports a fault once it has seen that
// many.
type pollCounter struct {
	runCollect
	polls   []int
	faultAt int
}

func (p *pollCounter) Err() error {
	p.polls = append(p.polls, len(p.recs))
	if p.faultAt > 0 && len(p.recs) >= p.faultAt {
		return errors.New("consumer fault")
	}
	return nil
}

// TestRunCutAtPoll replays a long stall through ReplayShards with a poll
// every 7 records: runs are cut so that every poll but the last falls on a
// multiple of 7 records, as it does for one-record delivery.
func TestRunCutAtPoll(t *testing.T) {
	enc := (&stallTrace{}).commit(0x52000).stall(0x40000, 100).commit(0x40000).stall(0x40010, 30).encode()
	capt, err := NewCaptureFromEncoded(enc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p pollCounter
	_, records, err := capt.ReplayShards(context.Background(), 7, &p)
	if err != nil || p.bad != nil {
		t.Fatal(err, p.bad)
	}
	if p.longest != 7 {
		t.Fatalf("longest run %d, want runs cut at the 7-record poll", p.longest)
	}
	for i, n := range p.polls[:len(p.polls)-1] {
		if n != 7*i {
			t.Fatalf("poll %d after %d records, want %d", i, n, 7*i)
		}
	}
	if last := p.polls[len(p.polls)-1]; uint64(last) != records {
		t.Fatalf("last poll after %d records, want all %d", last, records)
	}
}

// TestFaultInsideLongStall makes a consumer that takes runs fault in the
// middle of a 200 000-cycle stall: the replay must stop within
// DefaultChunkRecords records of the fault, in memory and spilled.
func TestFaultInsideLongStall(t *testing.T) {
	const faultAt = 50_000
	tr := (&stallTrace{}).commit(0x52000).stall(0x40000, 200_000).commit(0x40000)
	for _, spill := range []int{DefaultSpillBytes, 1 << 20} {
		c := newCapture(spill)
		for i := range tr.recs {
			c.OnCycle(&tr.recs[i])
		}
		c.Finish(tr.cycle)
		p := &pollCounter{faultAt: faultAt}
		_, records, err := c.ReplayShards(context.Background(), 0, p)
		c.Close()
		if err == nil || err.Error() != "consumer fault" {
			t.Fatalf("spill %d: err %v, want the consumer's fault", spill, err)
		}
		if records < faultAt || records > faultAt+DefaultChunkRecords {
			t.Fatalf("spill %d: replay stopped after %d records, want within %d of %d", spill, records, DefaultChunkRecords, faultAt)
		}
		if p.longest < DefaultChunkRecords/2 {
			t.Fatalf("spill %d: longest run %d, want the stall delivered in runs", spill, p.longest)
		}
	}
}
