package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// hostStamp identifies the machine a report was measured on; reports from
// different hosts are not compared.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func currentHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord is one invocation's result for one workload.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Passes    int                `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailedPct float64            `json:"failed_pct"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw are the timings as measured; Metrics' timings are Raw's divided
	// by HostFactor, the run's reference-kernel time over its nominal value.
	Raw        map[string]float64   `json:"raw"`
	HostFactor float64              `json:"host_factor"`
	PerPass    map[string][]float64 `json:"per_pass"`
	Accuracy   map[string]float64   `json:"accuracy,omitempty"`
	Layers     map[string]float64   `json:"layers,omitempty"`
	SelfTimes  []layerSelf          `json:"self_times,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

// report is the -o file: runs accumulate across invocations on one host.
type report struct {
	Schema int         `json:"schema"`
	Host   hostStamp   `json:"host"`
	Runs   []runRecord `json:"runs"`
}

const reportSchema = 1

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// appendReport adds recs to the report at path, creating it if needed.
func appendReport(path string, recs []runRecord) error {
	r, err := readReport(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		r = &report{Schema: reportSchema, Host: currentHost()}
	case err != nil:
		return err
	case r.Host != currentHost():
		return fmt.Errorf("%s was measured on another host (%+v)", path, r.Host)
	}
	r.Runs = append(r.Runs, recs...)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareReports prints, per workload and end-to-end metric, both sides'
// quartiles and the comparison verdict. It refuses reports from different
// hosts and reports whether any metric regressed.
func compareReports(basePath, headPath string, w io.Writer) (regressed bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	head, err := readReport(headPath)
	if err != nil {
		return false, err
	}
	if base.Host != head.Host {
		return false, fmt.Errorf("host stamps differ: %+v vs %+v", base.Host, head.Host)
	}
	fmt.Fprintf(w, "%-14s %-18s %10s %10s %10s | %10s %10s %10s | %7s %6s %5s %s\n",
		"workload", "metric", "base q1", "median", "q3", "head q1", "median", "q3", "worse", "spread", "wins", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			b, h := values(base, wl.name, m.Name), values(head, wl.name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := compareRuns(b, h, m.lowerIsBetter(), m.Bound)
			if v.Outcome == "regression" {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-18s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %6.1f%% %5.1f%% %2d/%-2d %s (bound %.0f%%)\n",
				wl.name, m.Name, v.BaseQ1, v.BaseMedian, v.BaseQ3, v.HeadQ1, v.HeadMedian, v.HeadQ3,
				100*v.Worse, 100*v.Spread, v.Wins, v.Pairs, v.Outcome, 100*m.Bound)
		}
	}
	return regressed, nil
}

// values collects a metric over a report's untraced runs of one workload,
// in run order.
func values(r *report, workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}
