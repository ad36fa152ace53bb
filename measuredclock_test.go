package tip

import (
	"bytes"
	"testing"

	"github.com/tipprof/tip/internal/trace"
)

// perCycleClock is measuredClock as it was before runs: it holds and
// delivers the commit-free suffix one record per cycle. FuzzMeasuredClock
// holds both producers' routes to it.
type perCycleClock struct {
	consumer   trace.Consumer
	held       []trace.Record
	next       uint64
	lastCommit uint64
}

func (m *perCycleClock) emit(r *trace.Record) {
	r.Cycle = m.next
	if r.CommitCount == 0 {
		m.held = append(m.held, *r)
	} else {
		for i := range m.held {
			m.consumer.OnCycle(&m.held[i])
		}
		m.held = m.held[:0]
		m.consumer.OnCycle(r)
		m.lastCommit = m.next
	}
	m.next++
}

// clockStep is one window cycle a leg emits. repeat is runLeg's flag: the
// record is the one emitted before it in the same leg, unchanged but for
// Cycle, and commits nothing.
type clockStep struct {
	rec    trace.Record
	repeat bool
}

// clockLegs decodes data into legs of window cycles. Each op byte's low two
// bits pick a new record that commits nothing, a new committing record, a
// run of repeats, or a leg boundary. A run cannot open a leg, so it is
// dropped there; after a commit it becomes unflagged copies of the
// committing record, as full steps that happen to match are.
func clockLegs(data []byte) [][]clockStep {
	legs := [][]clockStep{nil}
	var w trace.Record
	w.NumBanks = 2
	for i := 0; i < len(data) && i < 1<<12; i++ {
		op := data[i]
		leg := &legs[len(legs)-1]
		switch op & 3 {
		case 0, 1:
			w.CommitCount = op & 1
			w.ROBEmpty = op&4 != 0
			b := &w.Banks[op>>3&1]
			b.Valid = !w.ROBEmpty
			b.Committing = w.CommitCount > 0
			b.PC = 0x40000 + 4*uint64(op>>4)
			b.FID++
			b.InstIndex = int32(op >> 4)
			w.DispatchValid = op&8 != 0
			w.YoungestFID = b.FID + 1
			w.AnyInFlight = true
			*leg = append(*leg, clockStep{rec: w})
		case 2:
			if len(*leg) == 0 {
				continue
			}
			repeat := w.CommitCount == 0
			for n := op>>2 + 1; n > 0; n-- {
				*leg = append(*leg, clockStep{rec: w, repeat: repeat})
			}
		case 3:
			legs = append(legs, nil)
		}
	}
	return legs
}

// FuzzMeasuredClock feeds random legs of committing and non-committing
// records, with runs of repeats, through measuredClock as the serial
// producer does (emit with the repeat flag) and as the parallel one does (a
// leg buffer of runs, re-emitted by emitRun), and through perCycleClock. Each
// route ends in a Capture: the bytes, the measured clock, the last commit
// and the held suffix dropped at the end must all agree.
func FuzzMeasuredClock(f *testing.F) {
	f.Add([]byte{0x10, 0x7e, 0x21, 0x03, 0x1e, 0x31, 0x04, 0x5a})
	f.Add([]byte{0x01, 0x00, 0xfe, 0x03, 0xfe, 0x00, 0x0e, 0x03, 0x10, 0xfe, 0x11, 0x00, 0x3e})
	f.Add([]byte{0x00, 0x3e, 0x03, 0x3e, 0x00, 0x3e, 0x01, 0x02, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		legs := clockLegs(data)
		finish := func(capt *trace.Capture, lastCommit uint64) []byte {
			t.Helper()
			capt.Finish(lastCommit + 1)
			var buf bytes.Buffer
			if _, err := capt.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			capt.Close()
			return buf.Bytes()
		}

		refCapt := trace.NewCapture()
		ref := perCycleClock{consumer: refCapt}
		serCapt := trace.NewCapture()
		ser := measuredClock{consumer: serCapt}
		parCapt := trace.NewCapture()
		par := measuredClock{consumer: parCapt}
		var buf recordRuns
		for _, leg := range legs {
			buf = buf[:0]
			for i, s := range leg {
				r := s.rec
				r.Cycle = uint64(i) // leg-local, as a worker's leg
				ref.emit(&r)
				r.Cycle = uint64(i)
				ser.emit(&r, s.repeat)
				r.Cycle = uint64(i)
				buf.add(&r, s.repeat)
			}
			for i := range buf {
				par.emitRun(&buf[i])
			}
		}
		want := finish(refCapt, ref.lastCommit)
		for _, route := range []struct {
			name  string
			clock *measuredClock
			capt  *trace.Capture
		}{{"serial", &ser, serCapt}, {"parallel", &par, parCapt}} {
			m := route.clock
			var held []trace.Record
			for _, h := range m.held {
				for k := uint64(0); k < h.n; k++ {
					held = append(held, h.rec)
					held[len(held)-1].Cycle += k
				}
			}
			if m.next != ref.next || m.lastCommit != ref.lastCommit || len(held) != len(ref.held) {
				t.Fatalf("%s: next %d, last commit %d, %d held cycles; per cycle: %d, %d, %d",
					route.name, m.next, m.lastCommit, len(held), ref.next, ref.lastCommit, len(ref.held))
			}
			for i := range held {
				if held[i] != ref.held[i] {
					t.Fatalf("%s: held cycle %d differs from the per-cycle clock's", route.name, i)
				}
			}
			if got := finish(route.capt, m.lastCommit); !bytes.Equal(got, want) {
				t.Fatalf("%s: capture of %d bytes differs from the per-cycle capture of %d", route.name, len(got), len(want))
			}
		}
	})
}
