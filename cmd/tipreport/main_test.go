package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/perfdata"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/workload"
)

const (
	testBench        = "imagick"
	testScale uint64 = 30000
)

// recordSamples simulates imagick at the test scale and records its raw TIP
// samples to a file, as tipsim -record does.
func recordSamples(t *testing.T) string {
	t.Helper()
	w, err := workload.LoadScaled(testBench, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	capt, _, err := tip.CaptureWorkload(w, tip.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	path := filepath.Join(t.TempDir(), "x.tipperf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := perfdata.NewWriter(f)
	if _, _, err := capt.Replay(perfdata.NewCollector(rw, sampling.NewPeriodic(97), 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rw.Count() == 0 {
		t.Fatal("no samples recorded")
	}
	return path
}

// report runs tipreport over data with extra flags and returns its output.
func report(t *testing.T, data string, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-bench", testBench, "-scale", fmt.Sprint(testScale), "-data", data}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("tipreport %v: %v", args, err)
	}
	return out.String()
}

// section returns the indented rows under the line header in out.
func section(out, header string) []string {
	_, rest, ok := strings.Cut(out, header+"\n")
	if !ok {
		return nil
	}
	var rows []string
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		rows = append(rows, strings.TrimSpace(line))
	}
	return rows
}

func TestReport(t *testing.T) {
	data := recordSamples(t)

	out := report(t, data, "-top", "3")
	if !strings.Contains(out, testBench+": ") || !strings.Contains(out, "cycle categories: ") {
		t.Fatalf("missing summary lines:\n%s", out)
	}
	top := section(out, "hottest functions:")
	if len(top) != 3 {
		t.Fatalf("-top 3 printed %d functions:\n%s", len(top), out)
	}
	hottest := strings.Fields(top[0])[0]

	out = report(t, data, "-fn", hottest, "-insts", "4")
	if rows := section(out, "hottest instructions:"); len(rows) != 4 {
		t.Fatalf("-insts 4 printed %d instructions:\n%s", len(rows), out)
	}
	if rows := section(out, "instruction profile of "+hottest+":"); len(rows) == 0 {
		t.Fatalf("-fn %s printed no instruction profile:\n%s", hottest, out)
	}
	if !strings.Contains(out, hottest+" cycle categories: ") {
		t.Fatalf("-fn %s printed no cycle categories:\n%s", hottest, out)
	}

	pprof := filepath.Join(t.TempDir(), "x.pb.gz")
	out = report(t, data, "-pprof", pprof, "-core", "2")
	if !strings.Contains(out, "wrote pprof profile to "+pprof) {
		t.Fatalf("no pprof line:\n%s", out)
	}
	b, err := os.ReadFile(pprof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("pprof file is not gzip (%d bytes)", len(b))
	}
}

func TestReportErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", testBench}, &out); err == nil || !strings.Contains(err.Error(), "-data is required") {
		t.Fatalf("missing -data: err = %v", err)
	}
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "none")}, &out); err == nil {
		t.Fatal("missing data file: no error")
	}
	if err := run([]string{"-bench", "nosuch", "-data", "x"}, &out); err == nil {
		t.Fatal("unknown benchmark: no error")
	}
}
