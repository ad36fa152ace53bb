package check_test

import (
	"strings"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/check"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// runChecked runs a small benchmark with extra consumers ahead of a manually
// attached checker and returns both, with the run's error: the checker is a
// trace.Faultable, so its first violation fails the run.
func runChecked(t *testing.T, bench string, extra ...trace.Consumer) (*tip.Result, *check.Checker, error) {
	t.Helper()
	w, err := workload.LoadScaled(bench, 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := tip.DefaultRunConfig()
	rc.TargetSamples = 512
	ck := check.New(check.Options{
		Benchmark:       w.Name,
		CommitWidth:     rc.Core.CommitWidth,
		ROBEntries:      rc.Core.ROBEntries,
		FetchBufEntries: rc.Core.FetchBufEntries,
	})
	rc.ExtraConsumers = append(append([]trace.Consumer{}, extra...), ck)
	res, err := tip.Run(w, rc)
	return res, ck, err
}

// TestRealRunClean asserts a live simulation satisfies every per-cycle
// invariant and every conservation audit, then injects an attribution bug
// (a double-counted hot instruction) and asserts the audit catches it.
func TestRealRunCleanAndInjectedBugCaught(t *testing.T) {
	res, ck, err := runChecked(t, "imagick")
	if err != nil {
		t.Fatal(err)
	}
	ck.AuditOracle("Oracle", res.Oracle)
	for k, s := range res.Sampled {
		ck.AuditSampled(k.String(), s)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}

	// Deliberate attribution bug: double-count the hottest instruction in
	// the TIP profile. Conservation must break.
	sp := res.Sampled[tip.KindTIP]
	hot, best := -1, 0.0
	for i, v := range sp.Profile.InstCycles {
		if v > best {
			hot, best = i, v
		}
	}
	if hot < 0 {
		t.Fatal("TIP attributed no cycles")
	}
	sp.Profile.InstCycles[hot] *= 2
	err = ck.Err()
	if err == nil {
		t.Fatal("injected double-count not caught by conservation audit")
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("unexpected violation for injected bug: %v", err)
	}

	// Audits are recomputed lazily: undoing the mutation makes the same
	// checker clean again.
	sp.Profile.InstCycles[hot] = best
	if err := ck.Err(); err != nil {
		t.Fatalf("checker not clean after undoing mutation: %v", err)
	}
}

// TestRunCheckFlag exercises the RunConfig.Check wiring end to end.
func TestRunCheckFlag(t *testing.T) {
	w, err := workload.LoadScaled("x264", 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := tip.DefaultRunConfig()
	rc.TargetSamples = 512
	rc.Check = true
	if _, err := tip.Run(w, rc); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
}

// corruptor flips CommitCount on the n-th committing cycle, after the
// profilers have consumed the record but before the checker sees it.
type corruptor struct {
	fire int
	seen int
}

func (c *corruptor) OnCycle(r *trace.Record) {
	if r.CommitCount > 0 {
		c.seen++
		if c.seen == c.fire {
			r.CommitCount++
		}
	}
}

func (c *corruptor) Finish(uint64) {}

// TestCorruptedStreamCaught asserts a single corrupted record in an
// otherwise clean live run is detected by a downstream checker, and that the
// detection fails the run instead of returning a result.
func TestCorruptedStreamCaught(t *testing.T) {
	res, ck, runErr := runChecked(t, "imagick", &corruptor{fire: 1000})
	if runErr == nil || res != nil || !strings.Contains(runErr.Error(), "commit-count") {
		t.Fatalf("run with a corrupted record: result %v, err %v; want the commit-count violation", res != nil, runErr)
	}
	err := ck.Err()
	if err == nil {
		t.Fatal("corrupted record not detected")
	}
	if !strings.Contains(err.Error(), "commit-count") {
		t.Fatalf("want commit-count violation, got: %v", err)
	}
	if ck.Count() != 1 {
		t.Fatalf("want exactly 1 violation, got %d:\n%s", ck.Count(), ck.Report())
	}
}
