package check_test

import (
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/check"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
)

// commitRec builds one cycle of a well-formed 4-bank stream committing a
// single instruction with FID == cycle.
func commitRec(cycle uint64) trace.Record {
	var r trace.Record
	r.Cycle = cycle
	r.NumBanks = 4
	r.HeadBank = uint8(cycle % 4)
	b := &r.Banks[r.HeadBank]
	b.Valid = true
	b.Committing = true
	b.FID = cycle
	b.PC = 0x10000 + cycle*4
	b.InstIndex = int32(cycle % 8)
	r.CommitCount = 1
	r.AnyInFlight = true
	r.YoungestFID = cycle
	return r
}

func newChecker() *check.Checker {
	return check.New("synthetic", cpu.DefaultConfig())
}

// runStream feeds n well-formed cycles through the checker, applying mutate
// to the record of cycle 5, and returns the invariant names reported.
func runStream(t *testing.T, n uint64, mutate func(*trace.Record)) map[string]bool {
	t.Helper()
	c := newChecker()
	for i := uint64(0); i < n; i++ {
		r := commitRec(i)
		if i == 5 && mutate != nil {
			mutate(&r)
		}
		c.OnCycle(&r)
	}
	c.Finish(n)
	got := map[string]bool{}
	for _, v := range c.Violations() {
		got[v.Invariant] = true
	}
	return got
}

func TestCheckerCleanStream(t *testing.T) {
	if got := runStream(t, 20, nil); len(got) != 0 {
		t.Fatalf("clean stream reported violations: %v", got)
	}
}

func TestCheckerCatchesEachCorruption(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		mutate func(*trace.Record)
	}{
		{"cycle-gap", "cycle-contiguous", func(r *trace.Record) { r.Cycle += 3 }},
		{"bank-count", "bank-count", func(r *trace.Record) { r.NumBanks = 3 }},
		{"bank-count-over-max", "bank-count", func(r *trace.Record) { r.NumBanks = trace.MaxBanks + 1 }},
		{"head-bank", "head-bank", func(r *trace.Record) { r.HeadBank = 7 }},
		{"commit-without-valid", "bank-flags", func(r *trace.Record) {
			r.Banks[(r.HeadBank+1)%4].Committing = true
			r.CommitCount = 2
		}},
		{"committing-exception", "bank-flags", func(r *trace.Record) { r.Banks[r.HeadBank].Exception = true }},
		{"commit-count", "commit-count", func(r *trace.Record) { r.CommitCount = 2 }},
		{"rob-empty-with-banks", "rob-empty", func(r *trace.Record) { r.ROBEmpty = true }},
		{"not-empty-no-banks", "rob-empty", func(r *trace.Record) {
			r.Banks[r.HeadBank] = trace.BankEntry{}
			r.CommitCount = 0
		}},
		{"two-flush-causes", "single-cause", func(r *trace.Record) {
			r.Banks[r.HeadBank].Flush = true
			b := &r.Banks[(r.HeadBank+1)%4]
			b.Valid, b.Committing, b.Flush = true, true, true
			b.FID = r.Cycle + 1000
			r.CommitCount = 2
		}},
		{"exception-with-commits", "exception-commit", func(r *trace.Record) {
			r.ExceptionRaised = true
			r.ExceptionFID = r.Banks[r.HeadBank].FID
			r.Banks[r.HeadBank].Exception = true
		}},
		{"exception-not-at-head", "exception-head", func(r *trace.Record) {
			r.Banks[r.HeadBank].Committing = false
			r.CommitCount = 0
			r.ExceptionRaised = true
			r.ExceptionFID = r.Banks[r.HeadBank].FID + 7
		}},
		{"flush-not-last", "flush-last", func(r *trace.Record) {
			r.Banks[r.HeadBank].Flush = true
			b := &r.Banks[(r.HeadBank+1)%4]
			b.Valid, b.Committing = true, true
			b.FID = r.Cycle + 1000
			r.CommitCount = 2
		}},
		{"fid-reversed", "fid-order", func(r *trace.Record) {
			b := &r.Banks[(r.HeadBank+1)%4]
			b.Valid = true
			b.FID = r.Banks[r.HeadBank].FID - 1
		}},
		{"commit-fid-reused", "commit-fid-monotonic", func(r *trace.Record) {
			r.Banks[r.HeadBank].FID = 2 // already committed at cycle 2
		}},
		{"dispatch-no-inflight", "dispatch-inflight", func(r *trace.Record) {
			r.DispatchValid = true
			r.AnyInFlight = false
		}},
		{"youngest-behind-bank", "youngest-fid", func(r *trace.Record) { r.YoungestFID = r.Cycle - 1 }},
		{"inflight-unset", "youngest-fid", func(r *trace.Record) { r.AnyInFlight = false }},
		{"occupancy", "occupancy", func(r *trace.Record) { r.YoungestFID = r.Cycle + 100_000 }},
		{"empty-rob-with-commits", "state-partition", func(r *trace.Record) {
			r.Banks[r.HeadBank].Valid = false
			r.ROBEmpty = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runStream(t, 20, tc.mutate)
			if !got[tc.want] {
				t.Fatalf("corruption %q not reported as %q; got %v", tc.name, tc.want, got)
			}
		})
	}
}

func TestCheckerFinishInvariants(t *testing.T) {
	c := newChecker()
	for i := uint64(0); i < 10; i++ {
		r := commitRec(i)
		c.OnCycle(&r)
	}
	c.Finish(12) // last commit was at cycle 9: total must be 10
	found := false
	for _, v := range c.Violations() {
		if v.Invariant == "total-cycles" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inconsistent total cycles not reported: %v", c.Violations())
	}

	c2 := newChecker()
	c2.Finish(0)
	if err := c2.Err(); err == nil || !strings.Contains(err.Error(), "empty-trace") {
		t.Fatalf("empty trace not reported: %v", err)
	}
}

func TestCheckerViolationCapKeepsCounting(t *testing.T) {
	c := check.New("cap", cpu.DefaultConfig())
	for i := uint64(0); i < 50; i++ {
		r := commitRec(i)
		r.CommitCount = 3 // every cycle violates commit-count
		c.OnCycle(&r)
	}
	c.Finish(50)
	if got := len(c.Violations()); got != 16 {
		t.Fatalf("stored %d violations, want cap 16", got)
	}
	if c.Count() != 50 {
		t.Fatalf("counted %d violations, want 50", c.Count())
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "50 invariant violation") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestCheckerReportMentionsRecord(t *testing.T) {
	c := newChecker()
	r := commitRec(0)
	r.CommitCount = 2
	c.OnCycle(&r)
	c.Finish(1)
	rep := c.Report()
	for _, want := range []string{"commit-count", "cyc=0", "synthetic"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
