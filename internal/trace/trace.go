// Package trace holds the dynamic instruction stream produced by the
// functional emulator and consumed by the analyses and the trace-driven
// simulator. Each event records the executed PC, the architectural values
// involved, the effective address for memory operations, and the PC of
// the dynamically next instruction — everything the HPCA'02 study's
// ATOM-instrumented traces provided.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Event is one executed instruction.
type Event struct {
	PC   uint32 // PC of this instruction
	Next uint32 // PC of the dynamically next instruction
	Op   isa.Op
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg
	Val  uint64 // value written to Dst (or the stored value for stores)
	Addr uint64 // effective address for loads/stores, else 0
}

// Taken reports whether a control instruction redirected the PC (for
// non-control instructions it reports false).
func (e *Event) Taken() bool { return e.Op.IsControl() && e.Next != e.PC+1 }

// Trace is a complete dynamic instruction stream.
type Trace struct {
	Program *isa.Program
	Events  []Event

	// index maps PC -> sorted positions at which it executed. Built
	// lazily by BuildIndex; required by NextOccurrence. indexOnce makes
	// the build safe when the engine shares one *Trace across workers:
	// concurrent BuildIndex calls synchronise on it, and its
	// happens-before edge publishes the map to every caller.
	indexOnce sync.Once
	index     map[uint32][]int32

	// regs is the per-register writer index, built once by Regs and
	// shared by every simulation and dependence analysis of the trace.
	regsOnce sync.Once
	regs     *RegIndex
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Events) }

// ApproxBytes reports the trace's approximate resident size — the event
// stream, the occurrence index and the register index — for engine
// cache accounting. Traces dominate every other artifact by orders of
// magnitude. The program is charged to its own artifact entry. The
// register index is charged whether or not Regs has run yet: a cached
// trace is one the simulator will read.
func (t *Trace) ApproxBytes() int64 {
	// One Event is 32 bytes; the occurrence index adds one int32 per
	// event plus slice growth and map overhead (~8B/event amortised);
	// the register index holds 12 bytes per register write, and
	// roughly two events in three write a register.
	return int64(len(t.Events))*(32+8+8) + 128
}

// BuildIndex constructs the PC → positions index used by NextOccurrence.
// It is idempotent and safe for concurrent use.
func (t *Trace) BuildIndex() {
	t.indexOnce.Do(func() {
		idx := make(map[uint32][]int32)
		for i, e := range t.Events {
			idx[e.PC] = append(idx[e.PC], int32(i))
		}
		t.index = idx
	})
}

// Regs returns the trace's register index, building it on first use.
// It is safe for concurrent use; every caller shares one index.
func (t *Trace) Regs() *RegIndex {
	t.regsOnce.Do(func() { t.regs = newRegIndex(t) })
	return t.regs
}

// NextOccurrence returns the smallest trace position strictly greater
// than after at which pc executes, or -1 if there is none. BuildIndex
// must have been called.
func (t *Trace) NextOccurrence(pc uint32, after int) int {
	ps := t.index[pc]
	i := sort.Search(len(ps), func(i int) bool { return int(ps[i]) > after })
	if i == len(ps) {
		return -1
	}
	return int(ps[i])
}

// Occurrences returns every position at which pc executed (shared slice;
// callers must not mutate). BuildIndex must have been called.
func (t *Trace) Occurrences(pc uint32) []int32 { return t.index[pc] }

// Validate checks stream invariants: each event's Next matches the PC of
// the following event, and PCs are within the program.
func (t *Trace) Validate() error {
	n := len(t.Events)
	codeLen := uint32(t.Program.Len())
	for i := 0; i < n; i++ {
		e := &t.Events[i]
		if e.PC >= codeLen {
			return fmt.Errorf("trace: event %d PC %d out of range", i, e.PC)
		}
		if i+1 < n && e.Next != t.Events[i+1].PC {
			return fmt.Errorf("trace: event %d Next=%d but event %d PC=%d",
				i, e.Next, i+1, t.Events[i+1].PC)
		}
	}
	return nil
}

const eventSize = 4 + 4 + 1 + 1 + 1 + 1 + 8 + 8

// WriteTo serialises the event stream (not the program) in a fixed-width
// little-endian binary format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(t.Events)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	written := int64(8)
	var buf [eventSize]byte
	for i := range t.Events {
		e := &t.Events[i]
		binary.LittleEndian.PutUint32(buf[0:], e.PC)
		binary.LittleEndian.PutUint32(buf[4:], e.Next)
		buf[8] = byte(e.Op)
		buf[9] = byte(e.Dst)
		buf[10] = byte(e.Src1)
		buf[11] = byte(e.Src2)
		binary.LittleEndian.PutUint64(buf[12:], e.Val)
		binary.LittleEndian.PutUint64(buf[20:], e.Addr)
		n, err := w.Write(buf[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadFrom deserialises an event stream written by WriteTo. The Program
// field must be attached by the caller.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	read := int64(8)
	events := make([]Event, n)
	var buf [eventSize]byte
	for i := range events {
		m, err := io.ReadFull(r, buf[:])
		read += int64(m)
		if err != nil {
			return read, err
		}
		events[i] = Event{
			PC:   binary.LittleEndian.Uint32(buf[0:]),
			Next: binary.LittleEndian.Uint32(buf[4:]),
			Op:   isa.Op(buf[8]),
			Dst:  isa.Reg(buf[9]),
			Src1: isa.Reg(buf[10]),
			Src2: isa.Reg(buf[11]),
			Val:  binary.LittleEndian.Uint64(buf[12:]),
			Addr: binary.LittleEndian.Uint64(buf[20:]),
		}
	}
	t.Events = events
	t.index = nil
	t.indexOnce = sync.Once{}
	t.regs = nil
	t.regsOnce = sync.Once{}
	return read, nil
}
