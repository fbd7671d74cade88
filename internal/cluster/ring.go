package cluster

import (
	"sync"

	"repro/internal/isa"
)

// ring is a per-cycle bandwidth ledger: it answers "how many slots of
// this resource are already taken at absolute cycle c" with lazy reset,
// so schedules can run ahead of the simulated clock (bounded by the
// ring size).
//
// Tags are cycles offset by an epoch base. A recycled ring starts its
// next simulation with a base above every tag it ever stored, so no
// stale slot can match and the ring never needs clearing.
type ring struct {
	width int32
	base  int64 // added to every cycle before it is stored or compared
	hi    int64 // highest tag stored
	slots []ringSlot
}

// ringSlot is one cycle's usage, interleaved so a lookup touches one
// cache line.
type ringSlot struct {
	tag   int64
	count int32
}

const (
	ringSize = 1 << 13 // must exceed any scheduling horizon
	ringMask = ringSize - 1
)

// reset readies the ring for a new simulation with the given width.
func (r *ring) reset(width int) {
	if r.slots == nil {
		r.slots = make([]ringSlot, ringSize)
	}
	r.width = int32(width)
	r.base = r.hi + 1
}

// avail reports whether a slot is free at cycle c.
func (r *ring) avail(c int64) bool {
	k := r.base + c
	sl := &r.slots[k&ringMask]
	if sl.tag != k {
		return r.width > 0
	}
	return sl.count < r.width
}

// take consumes a slot at cycle c.
func (r *ring) take(c int64) {
	k := r.base + c
	sl := &r.slots[k&ringMask]
	if sl.tag != k {
		sl.tag = k
		sl.count = 0
		if k > r.hi {
			r.hi = k
		}
	}
	sl.count++
}

// allocJoint finds the earliest cycle ≥ start with capacity in both
// rings and consumes one slot from each.
func allocJoint(a, b *ring, start int64) int64 {
	c := start
	for {
		if a.avail(c) && b.avail(c) {
			a.take(c)
			b.take(c)
			return c
		}
		c++
		if c-start > ringSize/2 {
			panic("cluster: scheduling horizon exceeded")
		}
	}
}

// units is one thread unit's issue and functional-unit ledgers. fus is
// indexed by FU class; FUNone consumes no unit and has no ring.
type units struct {
	issue ring
	fus   [isa.FUNone]ring
}

// fuWidth is the paper's functional-unit mix per thread unit.
var fuWidth = [isa.FUNone]int{
	isa.FUIntALU:    2,
	isa.FUIntMul:    1,
	isa.FULoadStore: 2,
	isa.FUFPAdd:     2,
	isa.FUFPMul:     1,
	isa.FUFPDiv:     1,
}

// unitPool recycles thread-unit ledgers across simulations: each set
// is ~900 KB, and a 16-TU simulation needs sixteen. Simulate puts its
// sets back when it returns.
var unitPool sync.Pool

// getUnits returns a ready ledger set for a unit of the given issue
// width.
func getUnits(issueWidth int) *units {
	u, _ := unitPool.Get().(*units)
	if u == nil {
		u = new(units)
	}
	u.issue.reset(issueWidth)
	for i := range u.fus {
		u.fus[i].reset(fuWidth[i])
	}
	return u
}
