package tip_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus for the trace
// decoder fuzz targets from real benchmark captures. It is a maintenance
// tool, not a test: it only runs when TIP_GEN_FUZZ_CORPUS is set.
//
//	TIP_GEN_FUZZ_CORPUS=1 go test -run TestGenerateFuzzCorpus .
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("TIP_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set TIP_GEN_FUZZ_CORPUS to regenerate internal/trace/testdata/fuzz")
	}
	for _, bench := range []string{"imagick", "gcc"} {
		data := encodeBenchTrace(t, bench, 4000, 2048)
		writeCorpus(t, "FuzzDecodeRecord", bench, data)
		writeCorpus(t, "FuzzReplayBytes", bench, data)
		// A truncated real trace exercises the error paths from a realistic
		// prefix instead of pure mutation noise.
		trunc := data[:len(data)*3/4]
		writeCorpus(t, "FuzzReplayBytes", bench+"-truncated", trunc)
	}
	// Each core's trace from a real two-core capture seeds the decoder with
	// records timed by a contended shared LLC.
	for core, data := range encodeMulticoreTraces(t, []string{"mcf", "x264"}, 4000, 2048) {
		name := fmt.Sprintf("multicore-core%d", core)
		writeCorpus(t, "FuzzDecodeRecord", name, data)
		writeCorpus(t, "FuzzReplayBytes", name, data)
		writeCorpus(t, "FuzzReplayBytes", name+"-truncated", data[:len(data)*3/4])
	}
}

// encodeMulticoreTraces captures a scaled-down lockstep run of benches, one
// capture per core teed from the fused multicore run, and re-encodes the
// first maxRecords records of each core's capture as a standalone TIPTRC2
// stream.
func encodeMulticoreTraces(t *testing.T, benches []string, scale uint64, maxRecords int) [][]byte {
	t.Helper()
	ws := make([]*tip.Workload, len(benches))
	for i, bench := range benches {
		w, err := workload.LoadScaled(bench, 1, scale)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	capts := make([]*tip.TraceCapture, len(ws))
	for i := range capts {
		capts[i] = trace.NewCapture()
		defer capts[i].Close()
	}
	if _, err := tip.RunMulticoreStreaming(context.Background(), ws, tip.DefaultRunConfig(), capts...); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(capts))
	for i, c := range capts {
		out[i] = prefix(t, c, trace.NewCapture(), maxRecords)
	}
	return out
}

// encodeBenchTrace captures a scaled-down run of the benchmark and re-encodes
// its first maxRecords cycles, yielding a small but complete TIPTRC2 byte
// stream with real pipeline behaviour.
func encodeBenchTrace(t *testing.T, bench string, scale uint64, maxRecords int) []byte {
	t.Helper()
	w, err := workload.LoadScaled(bench, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	capture, _, err := tip.CaptureWorkload(w, tip.DefaultRunConfig().Core)
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Close()
	return prefix(t, capture, trace.NewCapture(), maxRecords)
}

// prefix replays capture into out, keeping only the first maxRecords
// records, and returns out's bytes.
func prefix(t *testing.T, capture, out *tip.TraceCapture, maxRecords int) []byte {
	t.Helper()
	defer out.Close()
	enc := &prefixEncoder{w: out, max: maxRecords}
	if _, _, err := capture.Replay(enc); err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := out.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixEncoder re-encodes only the first max records of a replayed trace,
// closing the stream at the prefix's own last cycle so the result is a valid
// standalone trace. It takes every record through OnCycle.
type prefixEncoder struct {
	w         *trace.Capture
	n, max    int
	lastCycle uint64
}

func (p *prefixEncoder) OnCycle(r *trace.Record) {
	if p.n < p.max {
		p.w.OnCycle(r)
		p.n++
		p.lastCycle = r.Cycle
	}
}

func (p *prefixEncoder) Finish(uint64) { p.w.Finish(p.lastCycle + 1) }

// writeCorpus writes one seed in the `go test fuzz v1` file format.
func writeCorpus(t *testing.T, target, name string, data []byte) {
	t.Helper()
	dir := filepath.Join("internal", "trace", "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
	path := filepath.Join(dir, "seed-"+name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(body))
}
