package trace

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func tinyProgram() *isa.Program {
	b := isa.NewBuilder("t")
	b.Func("main")
	b.Li(1, 1)                // 0
	b.Li(2, 2)                // 1
	b.Op3(isa.OpAdd, 3, 1, 2) // 2
	b.Halt()                  // 3
	return b.MustBuild()
}

func tinyTrace() *Trace {
	p := tinyProgram()
	return &Trace{Program: p, Events: []Event{
		{PC: 0, Next: 1, Op: isa.OpLui, Dst: 1, Val: 1},
		{PC: 1, Next: 2, Op: isa.OpLui, Dst: 2, Val: 2},
		{PC: 2, Next: 3, Op: isa.OpAdd, Dst: 3, Src1: 1, Src2: 2, Val: 3},
		{PC: 3, Next: 3, Op: isa.OpHalt},
	}}
}

func TestValidateOK(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDiscontinuity(t *testing.T) {
	tr := tinyTrace()
	tr.Events[1].Next = 9
	if err := tr.Validate(); err == nil {
		t.Fatal("expected discontinuity error")
	}
	tr = tinyTrace()
	tr.Events[0].PC = 99
	if err := tr.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestNextOccurrence(t *testing.T) {
	tr := &Trace{Program: tinyProgram(), Events: []Event{
		{PC: 0, Next: 1}, {PC: 1, Next: 0}, {PC: 0, Next: 1}, {PC: 1, Next: 3}, {PC: 3, Next: 3},
	}}
	tr.BuildIndex()
	if got := tr.NextOccurrence(0, 0); got != 2 {
		t.Errorf("NextOccurrence(0, after 0) = %d, want 2", got)
	}
	if got := tr.NextOccurrence(1, 1); got != 3 {
		t.Errorf("NextOccurrence(1, after 1) = %d, want 3", got)
	}
	if got := tr.NextOccurrence(0, 2); got != -1 {
		t.Errorf("NextOccurrence(0, after 2) = %d, want -1", got)
	}
	if got := tr.NextOccurrence(7, 0); got != -1 {
		t.Errorf("NextOccurrence(unknown) = %d, want -1", got)
	}
	if got := len(tr.Occurrences(1)); got != 2 {
		t.Errorf("Occurrences(1) len = %d", got)
	}
}

func TestTaken(t *testing.T) {
	e := Event{PC: 5, Next: 6, Op: isa.OpBeq}
	if e.Taken() {
		t.Error("fallthrough branch reported taken")
	}
	e.Next = 2
	if !e.Taken() {
		t.Error("redirecting branch reported not taken")
	}
	e = Event{PC: 5, Next: 2, Op: isa.OpAdd}
	if e.Taken() {
		t.Error("non-control op reported taken")
	}
}

func TestSerialisationRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	back.Program = tr.Program
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestSerialisationProperty(t *testing.T) {
	f := func(pcs []uint16, vals []uint64) bool {
		n := len(pcs)
		if len(vals) < n {
			n = len(vals)
		}
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			events[i] = Event{PC: uint32(pcs[i]), Next: uint32(pcs[i]) + 1,
				Op: isa.OpAdd, Dst: 3, Val: vals[i], Addr: vals[i] >> 3}
		}
		tr := &Trace{Events: events}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		var back Trace
		if _, err := back.ReadFrom(&buf); err != nil {
			return false
		}
		if len(back.Events) != n {
			return false
		}
		for i := range events {
			if back.Events[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRegIndex(t *testing.T) {
	tr := tinyTrace()
	idx := newRegIndex(tr)
	if v := idx.ValueAt(1, 0); v != 0 {
		t.Errorf("r1 before any write = %d", v)
	}
	if v := idx.ValueAt(1, 1); v != 1 {
		t.Errorf("r1 after write = %d", v)
	}
	if v := idx.ValueAt(3, 3); v != 3 {
		t.Errorf("r3 at end = %d", v)
	}
	if v := idx.ValueAt(3, 2); v != 0 {
		t.Errorf("r3 before write = %d", v)
	}
	if v := idx.ValueAt(0, 3); v != 0 {
		t.Errorf("r0 must always be 0, got %d", v)
	}
	if p := idx.LastWriteBefore(3, 3); p != 2 {
		t.Errorf("LastWriteBefore(r3,3) = %d", p)
	}
	if p := idx.LastWriteBefore(3, 2); p != -1 {
		t.Errorf("LastWriteBefore(r3,2) = %d", p)
	}
	if p := idx.LastWriteBefore(0, 3); p != -1 {
		t.Errorf("LastWriteBefore(r0) = %d", p)
	}
}

// TestRegIndexMatchesReplay cross-checks the index against a sequential
// replay of register state on a synthetic stream.
func TestRegIndexMatchesReplay(t *testing.T) {
	var events []Event
	var regs [isa.NumRegs]uint64
	state := uint64(12345)
	for i := 0; i < 500; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		r := isa.Reg(1 + state%(isa.NumRegs-1))
		events = append(events, Event{PC: uint32(i), Next: uint32(i + 1),
			Op: isa.OpLui, Dst: r, Val: state})
	}
	tr := &Trace{Events: events}
	idx := newRegIndex(tr)
	for i, e := range events {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := idx.ValueAt(r, i), regs[r]; got != want {
				t.Fatalf("pos %d r%d: got %d want %d", i, r, got, want)
			}
		}
		regs[e.Dst] = e.Val
	}
}

// TestBuildIndexConcurrent exercises the sync.Once guard: the engine
// shares one *Trace across workers that all call BuildIndex before
// querying. Run with -race.
func TestBuildIndexConcurrent(t *testing.T) {
	tr := tinyTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.BuildIndex()
			if got := tr.NextOccurrence(1, 0); got != 1 {
				t.Errorf("NextOccurrence(1, 0) = %d, want 1", got)
			}
		}()
	}
	wg.Wait()
}

func TestReadFromResetsIndex(t *testing.T) {
	tr := tinyTrace()
	tr.BuildIndex()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := tinyTrace()
	dst.BuildIndex()
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	dst.BuildIndex() // must rebuild despite the earlier Once firing
	if got := dst.NextOccurrence(2, 0); got != 2 {
		t.Errorf("NextOccurrence(2, 0) = %d, want 2", got)
	}
}
