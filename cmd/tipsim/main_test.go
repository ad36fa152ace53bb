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

// TestConfigureSampledRejections exercises every sampled-mode flag rejection
// and the accepted shapes (defaults filled, explicit geometry preserved).
func TestConfigureSampledRejections(t *testing.T) {
	cases := []struct {
		name             string
		sampled          bool
		window, interval uint64
		warmup           string
		workers          int
		record           string
		wantErr          string
	}{
		{name: "window without sampled", window: 4096, wantErr: "-window requires -sampled"},
		{name: "interval without sampled", interval: 65536, wantErr: "-interval requires -sampled"},
		{name: "warmup without sampled", warmup: "1024", wantErr: "-warmup requires -sampled"},
		{name: "workers without sampled", workers: 4, wantErr: "-windowworkers requires -sampled"},
		{name: "sampled with record", sampled: true, record: "out.tipperf", wantErr: "-record is incompatible with -sampled"},
		{name: "window exceeds interval", sampled: true, window: 1 << 20, interval: 4096, wantErr: "exceeds WindowInterval"},
		{name: "warmup overflows gap", sampled: true, window: 4096, interval: 8192, warmup: "8192", wantErr: "exceed WindowInterval"},
		{name: "warmup not a number", sampled: true, warmup: "lots", wantErr: "cycle count or \"auto\""},
		{name: "negative workers", sampled: true, workers: -1, wantErr: "-windowworkers must be >= 0"},
		{name: "workers over the bound", sampled: true, workers: tip.MaxWindowWorkers + 1, wantErr: "WindowWorkers must be <= 16"},
		{name: "huge workers", sampled: true, workers: 1 << 30, wantErr: "WindowWorkers must be <= 16"},
		{name: "plain run", wantErr: ""},
		{name: "sampled defaults", sampled: true, wantErr: ""},
		{name: "sampled auto warmup", sampled: true, warmup: "auto", wantErr: ""},
		{name: "sampled parallel", sampled: true, workers: 4, wantErr: ""},
		{name: "sampled explicit", sampled: true, window: 2048, interval: 16384, warmup: "1024", workers: 2, wantErr: ""},
	}
	for _, tc := range cases {
		rc := tip.DefaultRunConfig()
		f := cli.SampledFlags{Window: tc.window, Interval: tc.interval, Warmup: tc.warmup, Workers: tc.workers}
		err := configure(&rc, f, tc.sampled, "", tc.record)
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
	if err := configure(&rc, cli.SampledFlags{}, true, "", ""); err != nil {
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
	if err := configure(&rc, cli.SampledFlags{Window: 4096, Interval: 4096}, true, "", ""); err != nil {
		t.Fatal(err)
	}
	if rc.WarmupCycles != 0 {
		t.Fatalf("full-fraction run got a defaulted warmup %d", rc.WarmupCycles)
	}

	rc = tip.DefaultRunConfig()
	if err := configure(&rc, cli.SampledFlags{Warmup: "0", Workers: 3}, true, "", ""); err != nil {
		t.Fatal(err)
	}
	if rc.WarmupCycles != 0 || rc.WindowWorkers != 3 {
		t.Fatalf("explicit warmup 0 / 3 workers became %d / %d", rc.WarmupCycles, rc.WindowWorkers)
	}

	rc = tip.DefaultRunConfig()
	if err := configure(&rc, cli.SampledFlags{Window: 2048, Interval: 16384, Warmup: "1024"}, true, "", ""); err != nil {
		t.Fatal(err)
	}
	if rc.WindowCycles != 2048 || rc.WindowInterval != 16384 || rc.WarmupCycles != 1024 {
		t.Fatalf("explicit geometry became %d/%d/%d", rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles)
	}
}

// TestConfigureSampledAutoWarmup pins the -warmup auto resolution: the
// heuristic's cycle count is filled in.
func TestConfigureSampledAutoWarmup(t *testing.T) {
	rc := tip.DefaultRunConfig()
	if err := configure(&rc, cli.SampledFlags{Window: 8192, Interval: 1 << 20, Warmup: "auto"}, true, "", ""); err != nil {
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
		path := filepath.Join(dir, fmt.Sprintf("r%d.tipperf", i))
		if _, err := run(w, tip.DefaultRunConfig(), streaming, path); err != nil {
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

// TestRunMulticoreRejections exercises the -cores mode checks: tipsim
// rejects raw-sample recording, a single-core path; -sampled passes
// configure, and the library rejects it before anything runs, under either
// calibration policy.
func TestRunMulticoreRejections(t *testing.T) {
	rc := tip.DefaultRunConfig()
	err := configure(&rc, cli.SampledFlags{}, false, "mcf,x264", "out.tipperf")
	if want := "-record is incompatible with -cores"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("record: error %v, want substring %q", err, want)
	}
	if err := configure(&rc, cli.SampledFlags{}, true, "mcf,x264", ""); err != nil {
		t.Fatalf("sampled: configure: %v", err)
	}
	for _, streaming := range []bool{false, true} {
		err := runMulticore("mcf,x264", 1, 10_000, rc, streaming, 5, "")
		if want := "multicore runs do not support sampled simulation"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("sampled, streaming=%v: error %v, want substring %q", streaming, err, want)
		}
	}
	err = runMulticore("mcf,nosuchbench", 1, 10_000, tip.DefaultRunConfig(), false, 5, "")
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown bench: error %v, want substring %q", err, "unknown benchmark")
	}
}
