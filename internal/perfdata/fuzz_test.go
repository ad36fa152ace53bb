package perfdata

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/tipprof/tip/internal/profiler"
)

// FuzzPerfdataReader reads arbitrary bytes as a sample file. The Reader
// must never panic; Count must equal the number of successful Next calls;
// a file with a good header that ends mid-record must end in *ErrTruncated
// naming the record cut short; and the decoded samples must re-encode
// through Writer and decode again to equal samples, with a cut inside the
// last re-encoded record reported the same way.
func FuzzPerfdataReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, s := range []Sample{
		{Core: 1, PID: 42, TID: 43, Time: 100, Cycle: 100, Flags: profiler.FlagStalled,
			ValidMask: 0b0100, OldestID: 2, Addrs: [AddrCSRs]uint64{0, 0, 0x10040, 0}},
		{Core: 1, PID: 42, TID: 43, Time: 300, Cycle: 300, ValidMask: 0b1111, OldestID: 1,
			Addrs: [AddrCSRs]uint64{0x10000, 0x10004, 0x10008, 0x1000c}},
	} {
		w.Write(&s)
	}
	for _, seed := range [][]byte{
		valid.Bytes(),
		valid.Bytes()[:len(valid.Bytes())-10],
		valid.Bytes()[:len(Magic)+3],
		[]byte(Magic),
		[]byte(Magic[:5]),
		[]byte("NOTPERF1 and then some"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := readAll(t, data)
		if len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic {
			full, rem := (len(data)-len(Magic))/RecordBytes, (len(data)-len(Magic))%RecordBytes
			if len(samples) != full {
				t.Fatalf("%d samples decoded from %d whole records", len(samples), full)
			}
			if rem == 0 && err != io.EOF {
				t.Fatalf("file of whole records ended with %v, want io.EOF", err)
			}
			if rem != 0 {
				wantTruncated(t, err, uint64(full))
			}
		} else if len(data) > 0 && len(data) < len(Magic) {
			wantTruncated(t, err, 0)
		}
		if len(samples) == 0 {
			return
		}

		var enc bytes.Buffer
		w := NewWriter(&enc)
		for i := range samples {
			w.Write(&samples[i])
		}
		if w.Err() != nil || w.Count() != uint64(len(samples)) {
			t.Fatalf("re-encoding wrote %d of %d samples: %v", w.Count(), len(samples), w.Err())
		}
		again, err := readAll(t, enc.Bytes())
		if err != io.EOF {
			t.Fatalf("re-encoded samples ended with %v, want io.EOF", err)
		}
		if len(again) != len(samples) {
			t.Fatalf("re-encoded %d samples, decoded %d", len(samples), len(again))
		}
		for i := range samples {
			if again[i] != samples[i] {
				t.Fatalf("sample %d changed in a round trip:\n got %+v\nwant %+v", i, again[i], samples[i])
			}
		}
		cut := enc.Len() - 1 - len(data)%(RecordBytes-1)
		kept, err := readAll(t, enc.Bytes()[:cut])
		if len(kept) != len(samples)-1 {
			t.Fatalf("a cut inside the last record kept %d of %d samples", len(kept), len(samples))
		}
		wantTruncated(t, err, uint64(len(kept)))
	})
}

// readAll decodes data until Next fails, checking Count after every call,
// and returns the samples and the error that ended the read.
func readAll(t *testing.T, data []byte) ([]Sample, error) {
	t.Helper()
	r := NewReader(bytes.NewReader(data))
	var out []Sample
	for {
		var s Sample
		err := r.Next(&s)
		if err == nil {
			out = append(out, s)
		}
		if r.Count() != uint64(len(out)) {
			t.Fatalf("Count() = %d after %d successful Next calls", r.Count(), len(out))
		}
		if err != nil {
			return out, err
		}
	}
}

// wantTruncated fails unless err is *ErrTruncated naming record n.
func wantTruncated(t *testing.T, err error, n uint64) {
	t.Helper()
	var tr *ErrTruncated
	if !errors.As(err, &tr) || tr.Record != n {
		t.Fatalf("read ended with %v, want *ErrTruncated at record %d", err, n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("%v does not unwrap to io.ErrUnexpectedEOF", err)
	}
}
