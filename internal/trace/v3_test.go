package trace

import (
	"bytes"
	"context"
	"testing"
)

// interleavedTrace builds a lockstep-style multi-core record sequence: per
// cycle, one record per live core in core order, each a perturbed
// sampleRecord. It returns the plaintext records; cores drop out at
// different cycles like a real multi-programmed run.
func interleavedTrace(cores int, cyclesPerCore []uint64) []Record {
	var recs []Record
	maxCycles := uint64(0)
	for _, c := range cyclesPerCore {
		if c > maxCycles {
			maxCycles = c
		}
	}
	for cycle := uint64(0); cycle < maxCycles; cycle++ {
		for core := 0; core < cores; core++ {
			if cycle >= cyclesPerCore[core] {
				continue
			}
			r := sampleRecord(cycle)
			r.Core = uint32(core)
			// Distinct per-core PCs so a demux mix-up is visible in the
			// payloads, not just the core IDs.
			r.Banks[1].PC = 0x10000 + uint64(core)<<20 + cycle*4
			r.Banks[2].PC = r.Banks[1].PC + 4
			recs = append(recs, r)
		}
	}
	return recs
}

func encodeV3(recs []Record) []byte { return encodeRecords(true, recs) }

// TestV3RoundTripCarriesCore checks every decode path reproduces an
// interleaved two-core stream exactly, core IDs included.
func TestV3RoundTripCarriesCore(t *testing.T) {
	recs := interleavedTrace(2, []uint64{50, 80})
	enc := encodeV3(recs)
	if string(enc[:len(formatMagicV3)]) != formatMagicV3 {
		t.Fatalf("v3 writer emitted magic %q", enc[:len(formatMagicV3)])
	}

	var viaBytes collect
	if _, _, err := ReplayBytes(enc, &viaBytes); err != nil {
		t.Fatal(err)
	}
	capt := NewCaptureV3()
	defer capt.Close()
	for i := range recs {
		capt.OnCycle(&recs[i])
	}
	capt.Finish(0)
	var viaCapture collect
	if _, _, err := capt.Replay(&viaCapture); err != nil {
		t.Fatal(err)
	}
	adopted, err := NewCaptureFromEncoded(enc, uint64(len(recs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	var viaShards [2]collect
	if _, _, err := adopted.ReplayShards(context.Background(), 7, &viaShards[0], &viaShards[1]); err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][]Record{
		"bytes": viaBytes.recs, "capture": viaCapture.recs,
		"shard 0": viaShards[0].recs, "shard 1": viaShards[1].recs,
	} {
		if len(got) != len(recs) {
			t.Fatalf("%s: decoded %d records, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", name, i, got[i], recs[i])
			}
		}
	}
}

// TestV2ReencodedAsV3DecodesIdentically is the v2↔v3 differential: any v2
// stream re-encoded as v3 (core 0 throughout) must decode to the identical
// record sequence.
func TestV2ReencodedAsV3DecodesIdentically(t *testing.T) {
	v2, want := syntheticTrace(60, 31)

	var decoded collect
	if _, _, err := ReplayBytes(v2, &decoded); err != nil {
		t.Fatal(err)
	}
	v3 := encodeV3(decoded.recs)

	var back collect
	if _, _, err := ReplayBytes(v3, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(back.recs), len(want))
	}
	for i := range want {
		if back.recs[i] != want[i] {
			t.Fatalf("record %d differs after v2→v3 re-encode:\n got %+v\nwant %+v", i, back.recs[i], want[i])
		}
	}
}

// TestV3SingleCoreSizeBound pins the format overhead claim: a single-core
// stream encoded as v3 costs exactly one extra byte per record (the zero
// core delta).
func TestV3SingleCoreSizeBound(t *testing.T) {
	v2, recs := syntheticTrace(200, 7)
	v3 := encodeV3(recs)
	if len(v3) != len(v2)+len(recs) {
		t.Fatalf("v3 size %d, want v2 size %d + %d records", len(v3), len(v2), len(recs))
	}
}

// TestCaptureV3RoundTrip runs an interleaved stream through NewCaptureV3,
// replays it, and re-adopts the persisted bytes via NewCaptureFromEncoded —
// the tipd spill/restore path — checking core IDs survive both.
func TestCaptureV3RoundTrip(t *testing.T) {
	recs := interleavedTrace(3, []uint64{30, 45, 20})
	c := NewCaptureV3()
	defer c.Close()
	for i := range recs {
		c.OnCycle(&recs[i])
	}
	c.Finish(45)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	var got collect
	if _, _, err := c.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.recs) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got.recs), len(recs))
	}
	for i := range recs {
		if got.recs[i] != recs[i] {
			t.Fatalf("record %d differs through capture: got %+v want %+v", i, got.recs[i], recs[i])
		}
	}

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	adopted, err := NewCaptureFromEncoded(buf.Bytes(), c.Records(), c.Cycles())
	if err != nil {
		t.Fatal(err)
	}
	var re collect
	if _, _, err := adopted.Replay(&re); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if re.recs[i] != recs[i] {
			t.Fatalf("record %d differs through adopted capture", i)
		}
	}
}

// TestCoreFilterDemux wraps per-core collectors in CoreFilter over one
// interleaved replay: each inner consumer must observe exactly its core's
// records and a Finish total equal to its own last commit cycle plus one,
// not the interleaved stream's global total.
func TestCoreFilterDemux(t *testing.T) {
	cyc := []uint64{40, 25}
	recs := interleavedTrace(2, cyc)
	enc := encodeV3(recs)

	var inner [2]collect
	if _, _, err := ReplayBytes(enc, &CoreFilter{Core: 0, Inner: &inner[0]}, &CoreFilter{Core: 1, Inner: &inner[1]}); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		got := inner[core].recs
		if uint64(len(got)) != cyc[core] {
			t.Fatalf("core %d saw %d records, want %d", core, len(got), cyc[core])
		}
		for i, r := range got {
			if r.Core != uint32(core) {
				t.Fatalf("core %d record %d has Core=%d", core, i, r.Core)
			}
			if r.Cycle != uint64(i) {
				t.Fatalf("core %d record %d has Cycle=%d, want contiguous from 0", core, i, r.Cycle)
			}
		}
		// sampleRecord commits every cycle, so the per-core total is the
		// core's own cycle count.
		if inner[core].total != cyc[core] {
			t.Fatalf("core %d Finish total %d, want %d", core, inner[core].total, cyc[core])
		}
	}
}
