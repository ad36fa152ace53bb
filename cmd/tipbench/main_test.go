package main

import (
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/cli"
)

// TestValidateSampledFlags exercises every rejection of the sampled-figure
// flags plus the accepted shapes.
func TestValidateSampledFlags(t *testing.T) {
	cases := []struct {
		name             string
		sampledSel       bool
		window, interval uint64
		warmup           string
		workers          int
		sampledjson      string
		wantErr          string
	}{
		{name: "window without figure", window: 4096, wantErr: "-window requires -figures sampled"},
		{name: "interval without figure", interval: 65536, wantErr: "-interval requires -figures sampled"},
		{name: "warmup without figure", warmup: "1024", wantErr: "-warmup requires -figures sampled"},
		{name: "workers without figure", workers: 4, wantErr: "-windowworkers requires -figures sampled"},
		{name: "sampledjson without figure", sampledjson: "out.json", wantErr: "-sampledjson requires -figures sampled"},
		{name: "window exceeds interval", sampledSel: true, window: 1 << 20, interval: 4096, wantErr: "exceeds WindowInterval"},
		{name: "warmup overflows gap", sampledSel: true, window: 4096, interval: 8192, warmup: "8192", wantErr: "exceed WindowInterval"},
		{name: "warmup not a number", sampledSel: true, warmup: "lots", wantErr: "cycle count or \"auto\""},
		{name: "negative workers", sampledSel: true, workers: -1, wantErr: "-windowworkers must be >= 0"},
		{name: "no sampled flags", wantErr: ""},
		{name: "figure with defaults", sampledSel: true, wantErr: ""},
		{name: "figure auto warmup", sampledSel: true, warmup: "auto", wantErr: ""},
		{name: "figure parallel", sampledSel: true, workers: 4, wantErr: ""},
		{name: "figure explicit", sampledSel: true, window: 2048, interval: 16384, warmup: "1024", workers: 2, sampledjson: "out.json", wantErr: ""},
	}
	for _, tc := range cases {
		f := cli.SampledFlags{Window: tc.window, Interval: tc.interval, Warmup: tc.warmup, Workers: tc.workers}
		err := validateSampledFlags(f, tc.sampledSel, tc.sampledjson)
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
