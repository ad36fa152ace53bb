package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
)

// Store is tipd's content-addressed capture store: a directory (local to one
// daemon, or on storage a fleet shares) holding one <id>.trc per capture —
// exactly the encoded stream trace.Capture.WriteTo emits — plus an <id>.json
// sidecar carrying the replay calibration stats and a SHA-256 of the
// payload. It is the only tier that outlives a daemon: tipd's in-memory
// cache publishes every fresh capture here and reads it back lazily.
//
// Captures are deterministic functions of their key (bench, seed, scale,
// core-config hash — the golden-capture tests pin byte-identity), so the key
// id doubles as the content address: two nodes racing to Put the same id
// write identical bytes, last rename wins, and nothing ever needs
// invalidating. Get verifies the payload hash so a torn or corrupted entry —
// including what a crash between Put's two renames leaves — reads as a miss,
// never as wrong data.
type Store struct {
	dir   string
	warnf func(format string, args ...any)

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
}

// storeMeta is the sidecar schema. Stats carries the statistics of the run
// that produced the capture: tipd stores one capture per core, so one entry.
type storeMeta struct {
	ID      string      `json:"id"`
	Records uint64      `json:"records"`
	Cycles  uint64      `json:"cycles"`
	SHA256  string      `json:"sha256"`
	Stats   []cpu.Stats `json:"core_stats"`
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: opening store: %w", err)
	}
	return &Store{dir: dir, warnf: log.Printf}, nil
}

// SetWarnf redirects corruption warnings (default log.Printf).
func (st *Store) SetWarnf(f func(string, ...any)) { st.warnf = f }

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Get fetches the capture stored under id. It returns ok=false on any
// miss — absent, unreadable, or failing integrity verification (the latter
// with a warning); a store read must never be worse than re-simulating.
func (st *Store) Get(id string) (*trace.Capture, []cpu.Stats, bool) {
	metaData, err := os.ReadFile(filepath.Join(st.dir, id+".json"))
	if err != nil {
		st.misses.Add(1)
		return nil, nil, false
	}
	var meta storeMeta
	if err := json.Unmarshal(metaData, &meta); err != nil || meta.ID != id || len(meta.Stats) == 0 {
		st.warnf("fleet: store entry %s: corrupted sidecar, skipping (%v)", id, err)
		st.misses.Add(1)
		return nil, nil, false
	}
	enc, err := os.ReadFile(filepath.Join(st.dir, id+".trc"))
	if err != nil {
		st.misses.Add(1)
		return nil, nil, false
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != meta.SHA256 {
		st.warnf("fleet: store entry %s: payload hash %s != sidecar %s, skipping", id, got, meta.SHA256)
		st.misses.Add(1)
		return nil, nil, false
	}
	capt, err := trace.NewCaptureFromEncoded(enc, meta.Records, meta.Cycles)
	if err != nil {
		st.warnf("fleet: store entry %s: undecodable payload, skipping (%v)", id, err)
		st.misses.Add(1)
		return nil, nil, false
	}
	st.hits.Add(1)
	return capt, meta.Stats, true
}

// Put stores capt under id. Writes are atomic (temp file + rename, payload
// before sidecar) so concurrent readers either see a complete entry or a
// miss. The payload streams from capt.WriteTo through the SHA-256 hash
// straight into the temp file; a failed write leaves no entry and no temp
// file. Putting an id that already exists rewrites it with identical bytes.
func (st *Store) Put(id string, capt *trace.Capture, stats []cpu.Stats) error {
	h := sha256.New()
	err := atomicWrite(filepath.Join(st.dir, id+".trc"), func(w io.Writer) error {
		_, err := capt.WriteTo(io.MultiWriter(w, h))
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: store put %s: %w", id, err)
	}
	meta := storeMeta{
		ID:      id,
		Records: capt.Records(),
		Cycles:  capt.Cycles(),
		SHA256:  hex.EncodeToString(h.Sum(nil)),
		Stats:   stats,
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: store put %s: %w", id, err)
	}
	err = atomicWrite(filepath.Join(st.dir, id+".json"), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: store put %s: %w", id, err)
	}
	st.puts.Add(1)
	return nil
}

// Remove deletes the entry stored under id, sidecar first so a concurrent
// Get sees a miss. An absent entry is no error.
func (st *Store) Remove(id string) error {
	for _, ext := range []string{".json", ".trc"} {
		if err := os.Remove(filepath.Join(st.dir, id+ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("fleet: store remove %s: %w", id, err)
		}
	}
	return nil
}

// Counters returns (hits, misses, puts) for metrics exposition.
func (st *Store) Counters() (hits, misses, puts uint64) {
	return st.hits.Load(), st.misses.Load(), st.puts.Load()
}

// atomicWrite runs write against a uniquely named temp file in path's
// directory, then renames it to path, so readers never observe a partial
// file. On any failure the temp file is removed.
func atomicWrite(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
