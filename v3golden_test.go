package tip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/tipprof/tip/internal/trace"
)

// v3Magic heads the retired core-tagged multicore layout, which one
// interleaved trace held every core's records in. The library no longer
// reads or writes it; testdata/golden_capture_multicore.trc.gz keeps one
// such stream as the fixed point the per-core captures are checked against.
const v3Magic = "TIPTRC3\n"

// splitV3ByCore decodes a TIPTRC3 stream and splits it by core: element i
// holds core i's records in stream order. The layout is TIPTRC2's with a
// zigzag uvarint core-ID delta after each record's cycle delta; the cycle,
// PC, FID and InstIndex bases run across all cores' records.
func splitV3ByCore(data []byte) ([][]trace.Record, error) {
	if !bytes.HasPrefix(data, []byte(v3Magic)) {
		return nil, fmt.Errorf("not a TIPTRC3 stream")
	}
	d := v3Decoder{buf: data[len(v3Magic):]}
	var cores [][]trace.Record
	for len(d.buf) > 0 {
		core, rec := d.next()
		if d.err != nil {
			return nil, fmt.Errorf("TIPTRC3 record %d: %w", len(cores), d.err)
		}
		for len(cores) <= core {
			cores = append(cores, nil)
		}
		cores[core] = append(cores[core], rec)
	}
	return cores, nil
}

// v3Decoder walks a TIPTRC3 record stream; err sticks at the first
// malformed field.
type v3Decoder struct {
	buf                  []byte
	cycle, core, pc, fid uint64
	inst                 int64
	err                  error
}

func (d *v3Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err, d.buf = io.ErrUnexpectedEOF, nil
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *v3Decoder) delta() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *v3Decoder) byte() byte {
	if len(d.buf) == 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *v3Decoder) nextPC() uint64 {
	d.pc = uint64(int64(d.pc) + d.delta())
	return d.pc
}

func (d *v3Decoder) nextFID() uint64 {
	d.fid = uint64(int64(d.fid) + d.delta())
	return d.fid
}

func (d *v3Decoder) nextInst() int32 {
	d.inst += d.delta()
	return int32(d.inst)
}

// next decodes one record and the core that produced it.
func (d *v3Decoder) next() (core int, r trace.Record) {
	d.cycle += d.uvarint()
	d.core = uint64(int64(d.core) + d.delta())
	r.Cycle = d.cycle
	flags := d.byte()
	r.ROBEmpty = flags&1 != 0
	r.ExceptionRaised = flags&2 != 0
	r.DispatchValid = flags&4 != 0
	r.AnyInFlight = flags&8 != 0
	r.NumBanks = int(d.byte())
	r.HeadBank = d.byte()
	r.CommitCount = d.byte()
	if r.NumBanks > trace.MaxBanks {
		d.err = fmt.Errorf("bank count %d", r.NumBanks)
		return 0, r
	}
	for i := 0; i < r.NumBanks; i++ {
		bf := d.byte()
		b := &r.Banks[i]
		b.Valid = bf&1 != 0
		b.Committing = bf&2 != 0
		b.Mispredicted = bf&4 != 0
		b.Flush = bf&8 != 0
		b.Exception = bf&16 != 0
		if b.Valid {
			b.PC, b.FID, b.InstIndex = d.nextPC(), d.nextFID(), d.nextInst()
		}
	}
	if r.ExceptionRaised {
		r.ExceptionPC, r.ExceptionFID, r.ExceptionInstIndex = d.nextPC(), d.nextFID(), d.nextInst()
	}
	if r.DispatchValid {
		r.DispatchPC, r.DispatchFID, r.DispatchInstIndex = d.nextPC(), d.nextFID(), d.nextInst()
	}
	if r.AnyInFlight {
		r.YoungestFID = d.nextFID()
	}
	return int(d.core), r
}
