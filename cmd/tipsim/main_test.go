package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cli"
	"github.com/tipprof/tip/internal/perfdata"
	"github.com/tipprof/tip/internal/workload"
)

// configureSampled applies tipsim's sampled-mode flags to rc the way main
// does: the shared flag set under -sampled, then the -record rejection.
func configureSampled(rc *tip.RunConfig, sampled bool, window, interval uint64, warmup string, workers int, recording bool) error {
	f := cli.SampledFlags{Window: window, Interval: interval, Warmup: warmup, Workers: workers}
	if err := f.Apply(rc, sampled, "-sampled"); err != nil {
		return err
	}
	if recording {
		_, err := run(nil, *rc, "unused.tipperf")
		return err
	}
	return nil
}

// TestConfigureSampledRejections exercises every sampled-mode flag rejection
// and the accepted shapes (defaults filled, explicit geometry preserved).
func TestConfigureSampledRejections(t *testing.T) {
	cases := []struct {
		name             string
		sampled          bool
		window, interval uint64
		warmup           string
		workers          int
		recording        bool
		wantErr          string
	}{
		{name: "window without sampled", window: 4096, wantErr: "-window requires -sampled"},
		{name: "interval without sampled", interval: 65536, wantErr: "-interval requires -sampled"},
		{name: "warmup without sampled", warmup: "1024", wantErr: "-warmup requires -sampled"},
		{name: "workers without sampled", workers: 4, wantErr: "-windowworkers requires -sampled"},
		{name: "sampled with record", sampled: true, recording: true, wantErr: "-record is incompatible with -sampled"},
		{name: "window exceeds interval", sampled: true, window: 1 << 20, interval: 4096, wantErr: "exceeds WindowInterval"},
		{name: "warmup overflows gap", sampled: true, window: 4096, interval: 8192, warmup: "8192", wantErr: "exceed WindowInterval"},
		{name: "warmup not a number", sampled: true, warmup: "lots", wantErr: "cycle count or \"auto\""},
		{name: "negative workers", sampled: true, workers: -1, wantErr: "WindowWorkers must be >= 0"},
		{name: "plain run", wantErr: ""},
		{name: "sampled defaults", sampled: true, wantErr: ""},
		{name: "sampled auto warmup", sampled: true, warmup: "auto", wantErr: ""},
		{name: "sampled parallel", sampled: true, workers: 4, wantErr: ""},
		{name: "sampled explicit", sampled: true, window: 2048, interval: 16384, warmup: "1024", workers: 2, wantErr: ""},
	}
	for _, tc := range cases {
		rc := tip.DefaultRunConfig()
		err := configureSampled(&rc, tc.sampled, tc.window, tc.interval, tc.warmup, tc.workers, tc.recording)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestConfigureSampledDefaults pins the zero-value geometry to the
// evaluation-harness defaults, and that explicit values pass through.
func TestConfigureSampledDefaults(t *testing.T) {
	rc := tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 0, 0, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if !rc.Sampled {
		t.Fatal("rc.Sampled not set")
	}
	if rc.WindowCycles != tip.DefaultSampledWindow ||
		rc.WindowInterval != tip.DefaultSampledInterval ||
		rc.WarmupCycles != tip.DefaultSampledWarmup {
		t.Fatalf("defaults not applied: %d/%d/%d", rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles)
	}

	rc = tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 4096, 4096, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if rc.WarmupCycles != 0 {
		t.Fatalf("full-fraction run got a defaulted warmup %d", rc.WarmupCycles)
	}

	rc = tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 0, 0, "0", 3, false); err != nil {
		t.Fatal(err)
	}
	if rc.WarmupCycles != 0 || rc.WindowWorkers != 3 {
		t.Fatalf("explicit warmup 0 / 3 workers became %d / %d", rc.WarmupCycles, rc.WindowWorkers)
	}
}

// TestConfigureSampledAutoWarmup pins the -warmup auto resolution: the
// heuristic's cycle count is filled in.
func TestConfigureSampledAutoWarmup(t *testing.T) {
	rc := tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 8192, 1<<20, "auto", 0, false); err != nil {
		t.Fatal(err)
	}
	if want := tip.AutoWarmupCycles(8192, 1<<20); rc.WarmupCycles != want {
		t.Fatalf("auto warmup resolved to %d, want %d", rc.WarmupCycles, want)
	}
}

// TestRecordMatchesCollectorOnEveryRoute checks -record writes the same raw
// samples whether the run calibrates from a capture or from a streaming pilot
// that covers the whole run.
func TestRecordMatchesCollectorOnEveryRoute(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files [2][]byte
	for i, streaming := range []bool{false, true} {
		rc := tip.DefaultRunConfig()
		rc.Streaming = streaming
		path := filepath.Join(dir, fmt.Sprintf("r%d.tipperf", i))
		if _, err := run(w, rc, path); err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[0]) < perfdata.RecordBytes {
		t.Fatalf("recorded %d bytes, want at least one %d-byte sample", len(files[0]), perfdata.RecordBytes)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("-record -streaming wrote different samples than the captured route")
	}
}

// TestRunMulticoreRejections exercises the -cores mode rejections: raw-sample
// recording, fused streaming, and sampled simulation are all single-core
// paths.
func TestRunMulticoreRejections(t *testing.T) {
	rc := tip.DefaultRunConfig()
	cases := []struct {
		name                          string
		recording, streaming, sampled bool
		wantErr                       string
	}{
		{name: "record", recording: true, wantErr: "-record is incompatible with -cores"},
		{name: "streaming", streaming: true, wantErr: "-streaming is incompatible with -cores"},
		{name: "sampled", sampled: true, wantErr: "-sampled is incompatible with -cores"},
		{name: "unknown bench", wantErr: "unknown benchmark"},
	}
	for _, tc := range cases {
		err := runMulticore("mcf,nosuchbench", 1, 10_000, rc, 5, "", tc.recording, tc.streaming, tc.sampled)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
