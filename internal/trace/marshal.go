package trace

import (
	"fmt"
	"sync"

	"repro/internal/binio"
	"repro/internal/isa"
)

// traceVersion tags the Trace wire format.
const traceVersion = 1

// MarshalBinary serialises the trace as a self-contained artifact:
// unlike WriteTo (event stream only), it embeds the program so a
// disk-cached trace can be decoded without any sibling artifact.
func (t *Trace) MarshalBinary() ([]byte, error) {
	var prog []byte
	if t.Program != nil {
		var err error
		if prog, err = t.Program.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	w := binio.NewWriter(16 + len(prog) + len(t.Events)*eventSize)
	w.U8(traceVersion)
	w.Bool(t.Program != nil)
	if t.Program != nil {
		w.Blob(prog)
	}
	w.Uvarint(uint64(len(t.Events)))
	for i := range t.Events {
		e := &t.Events[i]
		w.U32(e.PC)
		w.U32(e.Next)
		w.U8(uint8(e.Op))
		w.U8(uint8(e.Dst))
		w.U8(uint8(e.Src1))
		w.U8(uint8(e.Src2))
		w.U64(e.Val)
		w.U64(e.Addr)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a trace written by MarshalBinary and builds
// the occurrence index eagerly, so a disk-loaded trace is immediately
// safe for the concurrent consumers that expect an indexed trace (the
// engine publishes cached traces to many workers).
func (t *Trace) UnmarshalBinary(data []byte) error {
	r := binio.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != traceVersion {
		return fmt.Errorf("trace: format version %d (want %d)", v, traceVersion)
	}
	var prog *isa.Program
	if r.Bool() {
		prog = new(isa.Program)
		if b := r.Blob(); r.Err() == nil {
			if err := prog.UnmarshalBinary(b); err != nil {
				return fmt.Errorf("trace: embedded program: %w", err)
			}
		}
	}
	events := make([]Event, r.Count(eventSize))
	for i := range events {
		events[i] = Event{
			PC:   r.U32(),
			Next: r.U32(),
			Op:   isa.Op(r.U8()),
			Dst:  isa.Reg(r.U8()),
			Src1: isa.Reg(r.U8()),
			Src2: isa.Reg(r.U8()),
			Val:  r.U64(),
			Addr: r.U64(),
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	t.Program = prog
	t.Events = events
	t.index = nil
	t.indexOnce = sync.Once{}
	t.regs = nil
	t.regsOnce = sync.Once{}
	t.BuildIndex()
	return nil
}
