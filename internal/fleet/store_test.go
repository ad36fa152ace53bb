package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// testCapture simulates one tiny workload into a capture for store tests.
func testCapture(t *testing.T) (*tip.TraceCapture, []cpu.Stats) {
	t.Helper()
	w, err := workload.LoadScaled("x264", 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	capt, stats, err := tip.CaptureWorkload(w, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { capt.Close() })
	return capt, []cpu.Stats{stats}
}

// warnRecorder collects store warnings for assertions.
type warnRecorder struct {
	mu   sync.Mutex
	msgs []string
}

func (wr *warnRecorder) warnf(format string, args ...any) {
	wr.mu.Lock()
	wr.msgs = append(wr.msgs, fmt.Sprintf(format, args...))
	wr.mu.Unlock()
}

func (wr *warnRecorder) contains(sub string) bool {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	for _, m := range wr.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	capt, stats := testCapture(t)
	const id = "x264-1-20000-deadbeef"
	if err := st.Put(id, capt, stats); err != nil {
		t.Fatal(err)
	}

	got, gotStats, ok := st.Get(id)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	defer got.Close()
	if len(gotStats) != 1 || gotStats[0] != stats[0] {
		t.Fatalf("stats round trip: got %+v want %+v", gotStats, stats)
	}
	if got.Records() != capt.Records() || got.Cycles() != capt.Cycles() {
		t.Fatalf("shape round trip: got %d/%d want %d/%d",
			got.Records(), got.Cycles(), capt.Records(), capt.Cycles())
	}
	var a, b bytes.Buffer
	if _, err := capt.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("stored capture not byte-identical to the original")
	}

	hits, misses, puts := st.Counters()
	if hits != 1 || misses != 0 || puts != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/0/1", hits, misses, puts)
	}
}

func TestStoreMissOnAbsent(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get("nope"); ok {
		t.Fatal("Get on empty store hit")
	}
	if _, misses, _ := st.Counters(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

// TestStoreCorruptionIsAMiss flips bits in both the payload and the sidecar
// and checks each reads as a warned miss — corruption on shared storage must
// degrade to a re-simulation, never to wrong data or a crash.
func TestStoreCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wr := &warnRecorder{}
	st.SetWarnf(wr.warnf)
	capt, stats := testCapture(t)
	const id = "x264-1-20000-deadbeef"
	if err := st.Put(id, capt, stats); err != nil {
		t.Fatal(err)
	}

	// Corrupt the payload: hash verification must reject it.
	trcPath := filepath.Join(dir, id+".trc")
	enc, err := os.ReadFile(trcPath)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)/2] ^= 0xff
	if err := os.WriteFile(trcPath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(id); ok {
		t.Fatal("Get returned a corrupted payload")
	}
	if !wr.contains("payload hash") {
		t.Fatalf("no payload-hash warning logged: %v", wr.msgs)
	}

	// Restore the payload, corrupt the sidecar.
	enc[len(enc)/2] ^= 0xff
	if err := os.WriteFile(trcPath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(id); !ok {
		t.Fatal("restored entry should hit again")
	}
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(id); ok {
		t.Fatal("Get trusted a corrupted sidecar")
	}
	if !wr.contains("corrupted sidecar") {
		t.Fatalf("no sidecar warning logged: %v", wr.msgs)
	}

	// Torn writes: each state must read as a miss, and a later Put must
	// repair the entry so Get round-trips again.
	tears := []struct {
		name string
		tear func() error
	}{
		{"truncated payload", func() error {
			return os.WriteFile(trcPath, enc[:len(enc)/2], 0o644)
		}},
		// kill -9 between Put's two renames: the payload landed, its
		// sidecar never did, and an interrupted write left its temp file.
		{"payload without sidecar", func() error {
			if err := os.Remove(filepath.Join(dir, id+".json")); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "."+id+".trc.tmp123"), enc[:7], 0o644)
		}},
	}
	for _, tc := range tears {
		if err := st.Put(id, capt, stats); err != nil {
			t.Fatal(err)
		}
		if err := tc.tear(); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := st.Get(id); ok {
			t.Fatalf("%s: Get hit a torn entry", tc.name)
		}
		if err := st.Put(id, capt, stats); err != nil {
			t.Fatalf("%s: Put after tear: %v", tc.name, err)
		}
		got, _, ok := st.Get(id)
		if !ok {
			t.Fatalf("%s: Get after re-Put missed", tc.name)
		}
		var b bytes.Buffer
		if _, err := got.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		got.Close()
		if !bytes.Equal(b.Bytes(), enc) {
			t.Fatalf("%s: re-Put entry not byte-identical to the original", tc.name)
		}
	}
}

// TestStoreFailedPutLeavesNothing checks that a Put whose payload write
// fails — an unfinished capture, or a store directory gone since OpenStore —
// returns the error and leaves no payload, sidecar or temp file behind, so
// Get misses instead of serving a partial entry.
func TestStoreFailedPutLeavesNothing(t *testing.T) {
	unfinished := trace.NewCapture()
	defer unfinished.Close()
	var rec trace.Record
	unfinished.OnCycle(&rec)
	finished, stats := testCapture(t)

	for _, tc := range []struct {
		name    string
		capt    *trace.Capture
		prepare func(dir string) error
	}{
		{"unfinished capture", unfinished, func(string) error { return nil }},
		{"store directory removed", finished, os.RemoveAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.prepare(dir); err != nil {
				t.Fatal(err)
			}
			const id = "x264-1-20000-deadbeef"
			if err := st.Put(id, tc.capt, stats); err == nil {
				t.Fatal("Put succeeded")
			}
			entries, err := os.ReadDir(dir)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("failed Put left %s behind", e.Name())
			}
			if _, _, ok := st.Get(id); ok {
				t.Fatal("Get hit after a failed Put")
			}
			if _, _, puts := st.Counters(); puts != 0 {
				t.Fatalf("puts = %d after a failed Put, want 0", puts)
			}
		})
	}
}

// shaToken stands in for the payload hash in FuzzStoreGet's sidecar inputs.
const shaToken = "@SHA256@"

// nopConsumer discards a replayed stream.
type nopConsumer struct{}

func (nopConsumer) OnCycle(*trace.Record) {}
func (nopConsumer) Finish(uint64)         {}

// FuzzStoreGet mutates a valid entry's sidecar and payload bytes and checks
// Get never panics and that anything it serves replays without panicking.
// The sidecar carries shaToken where the hash goes, and the target writes
// the mutated payload's real hash there, so mutations reach the decoder
// instead of all stopping at hash verification.
func FuzzStoreGet(f *testing.F) {
	w, err := workload.LoadScaled("x264", 1, 2_000)
	if err != nil {
		f.Fatal(err)
	}
	capt, stats, err := tip.CaptureWorkload(w, cpu.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	seed, err := OpenStore(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	const id = "x264-1-2000-deadbeef"
	if err := seed.Put(id, capt, []cpu.Stats{stats}); err != nil {
		f.Fatal(err)
	}
	capt.Close()
	meta, err := os.ReadFile(filepath.Join(seedDir, id+".json"))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := os.ReadFile(filepath.Join(seedDir, id+".trc"))
	if err != nil {
		f.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	meta = bytes.Replace(meta, []byte(hex.EncodeToString(sum[:])), []byte(shaToken), 1)
	f.Add(meta, payload)

	f.Fuzz(func(t *testing.T, meta, payload []byte) {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.SetWarnf(func(string, ...any) {})
		sum := sha256.Sum256(payload)
		meta = bytes.ReplaceAll(meta, []byte(shaToken), []byte(hex.EncodeToString(sum[:])))
		if err := os.WriteFile(filepath.Join(dir, id+".json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".trc"), payload, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, ok := st.Get(id)
		if !ok {
			return
		}
		defer got.Close()
		got.Replay(nopConsumer{})
		got.ReplayShards(context.Background(), 7, nopConsumer{}, nopConsumer{})
	})
}
