package trace

import (
	"sort"

	"repro/internal/isa"
)

// RegIndex answers "what is the architected value of register r just
// before trace position q" queries, which the simulator uses to validate
// predicted thread live-in values at join time (HPCA'02 §4.3.1).
type RegIndex struct {
	writes [isa.NumRegs]regWrites
}

type regWrites struct {
	pos []int32
	val []uint64
}

// newRegIndex builds the per-register writer index: one pass counts
// each register's writes so the second fills exactly-sized columns.
// Simulators share one index per trace through Trace.Regs.
func newRegIndex(t *Trace) *RegIndex {
	var counts [isa.NumRegs]int
	for i := range t.Events {
		if e := &t.Events[i]; e.Op.WritesReg() && e.Dst != 0 {
			counts[e.Dst]++
		}
	}
	idx := &RegIndex{}
	for r, n := range counts {
		if n > 0 {
			idx.writes[r] = regWrites{pos: make([]int32, 0, n), val: make([]uint64, 0, n)}
		}
	}
	for i := range t.Events {
		e := &t.Events[i]
		if e.Op.WritesReg() && e.Dst != 0 {
			w := &idx.writes[e.Dst]
			w.pos = append(w.pos, int32(i))
			w.val = append(w.val, e.Val)
		}
	}
	return idx
}

// ValueAt returns the architected value of register r immediately before
// trace position q executes (i.e., the value written by the last writer
// strictly before q, or zero if never written).
func (idx *RegIndex) ValueAt(r isa.Reg, q int) uint64 {
	if r == 0 {
		return 0
	}
	w := &idx.writes[r]
	i := sort.Search(len(w.pos), func(i int) bool { return int(w.pos[i]) >= q })
	if i == 0 {
		return 0
	}
	return w.val[i-1]
}

// LastWriteBefore returns the position of the last write to r strictly
// before q, or -1 if there is none.
func (idx *RegIndex) LastWriteBefore(r isa.Reg, q int) int {
	if r == 0 {
		return -1
	}
	w := &idx.writes[r]
	i := sort.Search(len(w.pos), func(i int) bool { return int(w.pos[i]) >= q })
	if i == 0 {
		return -1
	}
	return int(w.pos[i-1])
}
