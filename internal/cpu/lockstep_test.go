package cpu

import (
	"bytes"
	"testing"

	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// cyclesOnly hides a consumer's OnRepeat, so every run reaches it cycle by
// cycle through trace.Repeat.
type cyclesOnly struct{ trace.Consumer }

// TestRunDeliversStallsAsRuns checks that Core.Run hands a stall to a
// Repeater as one OnRepeat of more than one cycle, and that a Capture fed
// that way encodes the same bytes as one fed cycle by cycle.
func TestRunDeliversStallsAsRuns(t *testing.T) {
	build := benchmarkCore(t, DefaultConfig(), "mcf", 1)
	runs := &repeatRecorder{t: t}
	capt, ref := trace.NewCapture(), trace.NewCapture()
	defer capt.Close()
	defer ref.Close()
	if _, err := build().Run(&trace.Tee{Consumers: []trace.Consumer{runs, capt}}); err != nil {
		t.Fatal(err)
	}
	if runs.longest <= 1 {
		t.Fatalf("mcf's longest OnRepeat covered %d cycles; want each stall as one run", runs.longest)
	}
	if _, err := build().Run(cyclesOnly{ref}); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := capt.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if capt.Records() != uint64(len(runs.recs)) || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("capture fed by runs: %d records, %d bytes; fed cycle by cycle: %d records, %d bytes",
			capt.Records(), a.Len(), ref.Records(), b.Len())
	}
}

// TestRunPassesRepeatsToRepeaters checks that each core of a lockstep run
// hands its quiescent cycles to a consumer that takes runs as OnRepeat, a
// whole stall per call, and that the expanded stream and Finish total are
// exactly what a consumer taking every cycle through OnCycle sees on the
// same core.
func TestRunPassesRepeatsToRepeaters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000_000
	llc := cache.NewSharedLLC(cfg.Hierarchy)
	var cores []*Core
	var plain [2]recorder
	runs := [2]*repeatRecorder{{t: t}, {t: t}}
	consumers := make([]trace.Consumer, 2)
	for i, name := range []string{"mcf", "exchange2"} {
		w, err := workload.LoadScaled(name, 1, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		l1i, l1d := cache.NewPrivateStack(cfg.Hierarchy, llc, uint64(i)<<44)
		c := NewWithCaches(cfg, w.Prog, w.Stream(), l1i, l1d)
		for _, reg := range w.Prefault {
			c.MMU().PrefaultRange(reg.Base, reg.Size)
		}
		cores = append(cores, c)
		consumers[i] = &trace.Tee{Consumers: []trace.Consumer{&plain[i], runs[i]}}
	}
	if _, err := Lockstep(nil, cores, consumers); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if runs[i].total != plain[i].total || len(runs[i].recs) != len(plain[i].recs) {
			t.Fatalf("core %d: repeater saw %d records, total %d; plain consumer %d, total %d",
				i, len(runs[i].recs), runs[i].total, len(plain[i].recs), plain[i].total)
		}
		for j := range plain[i].recs {
			if runs[i].recs[j] != plain[i].recs[j] {
				t.Fatalf("core %d record %d differs between the repeater and the plain consumer", i, j)
			}
		}
	}
	if runs[0].repeats == 0 {
		t.Fatal("mcf's core delivered no quiescent cycle as OnRepeat")
	}
	if runs[0].longest <= 1 {
		t.Fatalf("mcf's core delivered its longest stall as %d-cycle runs; want its stalls as runs", runs[0].longest)
	}
}
