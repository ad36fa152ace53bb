// Package pprofenc encodes TIP profiles as gzipped pprof protocol buffers,
// the interchange format `go tool pprof` (and the wider pprof toolchain)
// consumes. It closes the loop on the paper's deployment story (§3.1): perf
// records TIP samples online, the profile is rebuilt offline, and from there
// it should flow into standard profiling tooling — here, pprof.
//
// The encoder is hand-rolled protobuf (the repo takes no dependencies): the
// pprof Profile message is small and append-only, so a minimal varint/
// length-delimited writer suffices. Output is byte-deterministic for a given
// profile and options — instructions are walked in static index order, the
// string table is built in first-use order, and the gzip header carries no
// timestamp — so two runs of the same (bench, seed, scale, profiler)
// evaluation encode to identical files. Services and CLIs share this one
// encoder, and tests pin the byte-for-byte equality.
//
// Mapping of TIP concepts onto pprof:
//
//   - each static instruction with attributed cycles becomes one Sample
//     whose single-frame stack is a Location at the instruction's PC;
//   - each workload function becomes a pprof Function; the Location's Line
//     records the instruction's position within its function;
//   - the sample value is the attributed cycle count, rounded to int64
//     (pprof values are integral); the value type is "cycles"/"cycles";
//   - one synthetic Mapping spans the workload's text segment.
package pprofenc

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"

	"github.com/tipprof/tip/internal/profile"
)

// Options parameterize one encoding.
type Options struct {
	// Period is the sampling period in cycles (0 omits the period).
	Period int64
	// Mapping names the synthetic binary in the pprof mapping table
	// (default the program's workload name).
	Mapping string
	// Comments are attached as pprof comment strings (`pprof -comments`).
	Comments []string
	// Labels are string labels attached to every sample (`pprof -tags`),
	// in slice order. Multicore profiles tag samples with {"core", "N"} so
	// per-core profiles stay distinguishable after merging.
	Labels []Label
}

// Label is one string-valued pprof sample label.
type Label struct {
	Key, Value string
}

// JobOptions builds the canonical options for an evaluated run, shared by
// the tipd daemon and the batch CLIs so the two paths emit byte-identical
// files for the same (bench, seed, scale, profiler, period) tuple.
func JobOptions(bench string, seed, scale uint64, profiler string, period uint64) Options {
	return Options{
		Period:  int64(period),
		Mapping: bench,
		Comments: []string{
			fmt.Sprintf("tip: bench=%s seed=%d scale=%d profiler=%s period=%d",
				bench, seed, scale, profiler, period),
		},
	}
}

// Encode returns the gzipped pprof encoding of p.
func Encode(p *profile.Profile, opt Options) ([]byte, error) {
	raw := encodeProto(p, opt)
	var buf writerBuf
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// Write encodes p and writes the gzipped result to w.
func Write(w io.Writer, p *profile.Profile, opt Options) error {
	data, err := Encode(p, opt)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// writerBuf is a minimal append-only io.Writer (bytes.Buffer without the
// read-side machinery).
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// pprof Profile message field numbers.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileMapping     = 3
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fProfilePeriodType  = 11
	fProfilePeriod      = 12
	fProfileComment     = 13
)

// strTable interns strings into the pprof string table (index 0 is "").
type strTable struct {
	idx map[string]int64
	tab []string
}

func newStrTable() *strTable {
	return &strTable{idx: map[string]int64{"": 0}, tab: []string{""}}
}

func (t *strTable) id(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.tab))
	t.idx[s] = i
	t.tab = append(t.tab, s)
	return i
}

func encodeProto(p *profile.Profile, opt Options) []byte {
	if opt.Mapping == "" {
		opt.Mapping = p.Prog.Name
	}
	st := newStrTable()
	// The sample and period value type is cycles, in cycles.
	cyclesID := st.id("cycles")
	mappingFileID := st.id("tip://" + opt.Mapping)

	// Sample labels are identical for every sample; encode once. Label
	// {key: 1, str: 2} nested in Sample field 3.
	var labels []byte
	for _, lb := range opt.Labels {
		l := appendVarintField(nil, 1, uint64(st.id(lb.Key)))
		l = appendVarintField(l, 2, uint64(st.id(lb.Value)))
		labels = appendBytesField(labels, 3, l)
	}

	var out []byte

	// sample_type: one ValueType {type, unit}.
	vt := appendVarintField(nil, 1, uint64(cyclesID))
	vt = appendVarintField(vt, 2, uint64(cyclesID))
	out = appendBytesField(out, fProfileSampleType, vt)

	// Samples: one per attributed instruction, single-frame stacks.
	// Location/function IDs are 1-based; locations reuse the instruction's
	// static index, functions the program's function index.
	prog := p.Prog
	usedFuncs := make(map[int]bool)
	var locs []byte
	p.EachNonZero(func(idx int, cycles float64) {
		in := prog.InstByIndex(idx)
		fn := in.Func()
		usedFuncs[fn.Index] = true

		locID := uint64(idx + 1)
		// Sample {location_id: [locID], value: [round(cycles)]}.
		var s []byte
		s = appendPackedField(s, 1, []uint64{locID})
		s = appendPackedField(s, 2, []uint64{uint64(int64(math.Round(cycles)))})
		s = append(s, labels...)
		out = appendBytesField(out, fProfileSample, s)

		// Location {id, mapping_id: 1, address, line}. The "line" is the
		// instruction's 1-based position within its function — the closest
		// analogue of a source line a generated workload has.
		line := appendVarintField(nil, 1, uint64(fn.Index+1))
		line = appendVarintField(line, 2, uint64(in.Index-fn.Blocks[0].Insts[0].Index+1))
		var l []byte
		l = appendVarintField(l, 1, locID)
		l = appendVarintField(l, 2, 1)
		l = appendVarintField(l, 3, in.PC)
		l = appendBytesField(l, 4, line)
		locs = appendBytesField(locs, fProfileLocation, l)
	})

	// Mapping {id: 1, memory_start, memory_limit, filename, has_functions}.
	var m []byte
	m = appendVarintField(m, 1, 1)
	m = appendVarintField(m, 2, prog.Base())
	m = appendVarintField(m, 3, prog.Base()+prog.CodeBytes())
	m = appendVarintField(m, 5, uint64(mappingFileID))
	m = appendVarintField(m, 7, 1) // has_functions
	out = appendBytesField(out, fProfileMapping, m)

	out = append(out, locs...)

	// Functions, in program order, restricted to those referenced.
	for _, fn := range prog.Funcs {
		if !usedFuncs[fn.Index] {
			continue
		}
		nameID := st.id(fn.Name)
		var f []byte
		f = appendVarintField(f, 1, uint64(fn.Index+1))
		f = appendVarintField(f, 2, uint64(nameID))
		f = appendVarintField(f, 3, uint64(nameID))
		f = appendVarintField(f, 4, uint64(mappingFileID))
		out = appendBytesField(out, fProfileFunction, f)
	}

	// period_type + period.
	if opt.Period > 0 {
		pt := appendVarintField(nil, 1, uint64(cyclesID))
		pt = appendVarintField(pt, 2, uint64(cyclesID))
		out = appendBytesField(out, fProfilePeriodType, pt)
		out = appendVarintField(out, fProfilePeriod, uint64(opt.Period))
	}

	// Comments (string-table indices).
	for _, c := range opt.Comments {
		out = appendVarintField(out, fProfileComment, uint64(st.id(c)))
	}

	// String table last: interning is complete only now.
	for _, s := range st.tab {
		out = appendBytesField(out, fProfileStringTable, []byte(s))
	}
	return out
}

// --- protobuf wire helpers -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendVarintField appends a varint-typed field (wire type 0).
func appendVarintField(b []byte, field int, v uint64) []byte {
	b = appendUvarint(b, uint64(field)<<3)
	return appendUvarint(b, v)
}

// appendBytesField appends a length-delimited field (wire type 2).
func appendBytesField(b []byte, field int, v []byte) []byte {
	b = appendUvarint(b, uint64(field)<<3|2)
	b = appendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendPackedField appends a packed repeated varint field (wire type 2).
func appendPackedField(b []byte, field int, vs []uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = appendUvarint(body, v)
	}
	return appendBytesField(b, field, body)
}
