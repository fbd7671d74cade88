// Package dep performs the trace-based dependence and value-
// predictability analysis behind the paper's spawning-pair ordering
// criteria (HPCA'02 §3.1) and live-in identification (§4.3.1):
//
//   - live-in registers of a candidate speculative thread (read before
//     written after the CQIP),
//   - the stride-predictability of each live-in across dynamic
//     instances,
//   - the expected number of spawned-thread instructions that are
//     independent of the SP→CQIP region (criterion b), and
//   - the number independent of it or dependent only on predictable
//     live-ins (criterion c).
//
// Dependences are tracked with a three-state taint lattice
// (clean < predictable < dependent) propagated through registers and
// same-thread memory, with the thread window length set to the pair's
// expected distance, exactly the assumption the paper makes.
package dep

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Key identifies a candidate spawning pair by instruction PCs.
type Key struct {
	SP   uint32
	CQIP uint32
}

// Stats aggregates the analysis for one candidate pair.
type Stats struct {
	// Occurrences is the number of dynamic (SP→CQIP) instances sampled.
	Occurrences int
	// AvgDist is the mean dynamic instruction distance SP→CQIP over the
	// sampled instances (useful for pairs not present in the pruned
	// graph, e.g. heuristic pairs).
	AvgDist float64
	// AvgIndep is the mean number of thread-window instructions fully
	// independent of the SP→CQIP region.
	AvgIndep float64
	// AvgPred is the mean number independent or dependent only on
	// stride-predictable live-ins.
	AvgPred float64
	// LiveIns is the union of registers read before written in the
	// sampled thread windows and written in the SP→CQIP region.
	LiveIns []isa.Reg
	// HitRate maps each live-in register to its measured stride hit
	// rate across instances.
	HitRate map[isa.Reg]float64
}

// PredictableLiveIns returns the live-ins whose stride hit rate meets
// the threshold.
func (s *Stats) PredictableLiveIns(threshold float64) []isa.Reg {
	var out []isa.Reg
	for _, r := range s.LiveIns {
		if s.HitRate[r] >= threshold {
			out = append(out, r)
		}
	}
	return out
}

// Config bounds the sampling work.
type Config struct {
	// MaxOccurrences caps the dynamic instances sampled per pair
	// (default 12).
	MaxOccurrences int
	// MaxWindow caps the thread-window length in instructions
	// (default 384).
	MaxWindow int
}

func (c Config) withDefaults() Config {
	if c.MaxOccurrences <= 0 {
		c.MaxOccurrences = 12
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 384
	}
	return c
}

// Request names a pair to analyse and its expected distance (used as
// the thread-window length; 0 means "measure from the trace").
type Request struct {
	Key  Key
	Dist float64
}

// taint lattice values.
const (
	clean uint8 = iota
	predictable
	dependent
)

// Analyze runs the dependence analysis for each requested pair over the
// trace. The trace must have its index built.
func Analyze(tr *trace.Trace, reqs []Request, cfg Config) map[Key]*Stats {
	cfg = cfg.withDefaults()
	regIdx := tr.Regs()
	out := make(map[Key]*Stats, len(reqs))
	for _, rq := range reqs {
		out[rq.Key] = analyzePair(tr, regIdx, rq, cfg)
	}
	return out
}

// occurrence is one dynamic (SP at t0 → CQIP at t1) instance.
type occurrence struct{ t0, t1 int }

// findOccurrences samples up to max instances of the pair, skipping
// instances where the SP recurs before the CQIP (which the reaching-
// probability constraint treats as failures).
func findOccurrences(tr *trace.Trace, k Key, max int) []occurrence {
	var occs []occurrence
	after := -1
	for len(occs) < max {
		t0 := tr.NextOccurrence(k.SP, after)
		if t0 < 0 {
			break
		}
		after = t0
		t1 := tr.NextOccurrence(k.CQIP, t0)
		if t1 < 0 {
			continue
		}
		if k.SP != k.CQIP {
			if nextSP := tr.NextOccurrence(k.SP, t0); nextSP >= 0 && nextSP < t1 {
				continue
			}
		}
		occs = append(occs, occurrence{t0, t1})
		if t1 > after {
			after = t1
		}
	}
	return occs
}

func analyzePair(tr *trace.Trace, regIdx *trace.RegIndex, rq Request, cfg Config) *Stats {
	st := &Stats{HitRate: make(map[isa.Reg]float64)}
	occs := findOccurrences(tr, rq.Key, cfg.MaxOccurrences)
	st.Occurrences = len(occs)
	if len(occs) == 0 {
		return st
	}

	// Pass 0: measured distance.
	var distSum float64
	for _, oc := range occs {
		distSum += float64(oc.t1 - oc.t0)
	}
	st.AvgDist = distSum / float64(len(occs))

	window := int(rq.Dist)
	if window <= 0 {
		window = int(st.AvgDist)
	}
	if window > cfg.MaxWindow {
		window = cfg.MaxWindow
	}
	if window < 1 {
		window = 1
	}

	// Pass 1: live-in discovery and per-occurrence live-in values.
	liveInSet := make(map[isa.Reg]bool)
	values := make(map[isa.Reg][]uint64) // per live-in, value at each t1
	for _, oc := range occs {
		for r := range scanLiveIns(tr, oc, window) {
			liveInSet[r] = true
		}
	}
	var liveList []isa.Reg
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if liveInSet[r] {
			liveList = append(liveList, r)
		}
	}
	st.LiveIns = liveList

	// Gather live-in values at each CQIP instance (architected value
	// just before t1).
	for _, oc := range occs {
		for _, r := range liveList {
			values[r] = append(values[r], regIdx.ValueAt(r, oc.t1))
		}
	}
	for _, r := range liveList {
		st.HitRate[r] = strideHitRate(values[r])
	}
	predSet := make(map[isa.Reg]bool)
	for _, r := range liveList {
		if st.HitRate[r] >= PredictableThreshold {
			predSet[r] = true
		}
	}

	// Pass 2: taint propagation with predictability classification.
	var indepSum, predSum float64
	for _, oc := range occs {
		indep, pred := countIndependent(tr, oc, window, predSet)
		indepSum += float64(indep)
		predSum += float64(pred)
	}
	st.AvgIndep = indepSum / float64(len(occs))
	st.AvgPred = predSum / float64(len(occs))
	return st
}

// PredictableThreshold is the stride hit rate above which a live-in is
// treated as predictable by the ordering criterion (c).
const PredictableThreshold = 0.75

// strideHitRate measures how often v[n] == v[n-1] + (v[n-1] - v[n-2]).
func strideHitRate(vals []uint64) float64 {
	switch len(vals) {
	case 0, 1:
		return 1 // a single instance is trivially predictable-by-copy
	case 2:
		if vals[0] == vals[1] {
			return 1
		}
		return 0
	}
	hits, trials := 0, 0
	for n := 2; n < len(vals); n++ {
		stride := vals[n-1] - vals[n-2]
		trials++
		if vals[n] == vals[n-1]+stride {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// scanLiveIns computes the thread-window live-ins of one occurrence:
// registers read before written in the window and written in the
// SP→CQIP region.
func scanLiveIns(tr *trace.Trace, oc occurrence, window int) map[isa.Reg]bool {
	regionWrites := make(map[isa.Reg]bool)
	for t := oc.t0; t < oc.t1; t++ {
		e := &tr.Events[t]
		if e.Op.WritesReg() && e.Dst != 0 {
			regionWrites[e.Dst] = true
		}
	}
	liveIns := make(map[isa.Reg]bool)
	written := make(map[isa.Reg]bool)
	end := oc.t1 + window
	if end > tr.Len() {
		end = tr.Len()
	}
	for t := oc.t1; t < end; t++ {
		e := &tr.Events[t]
		regs, n := readsOf(e)
		for i := 0; i < n; i++ {
			r := regs[i]
			if !written[r] && regionWrites[r] {
				liveIns[r] = true
			}
		}
		if e.Op.WritesReg() && e.Dst != 0 {
			written[e.Dst] = true
		}
	}
	return liveIns
}

// countIndependent propagates the clean/predictable/dependent lattice
// through the thread window and returns (#clean, #clean-or-predictable).
func countIndependent(tr *trace.Trace, oc occurrence, window int, predSet map[isa.Reg]bool) (indep, pred int) {
	// Region taint.
	regState := [isa.NumRegs]uint8{}
	memWritten := make(map[uint64]bool)
	for t := oc.t0; t < oc.t1; t++ {
		e := &tr.Events[t]
		if e.Op.WritesReg() && e.Dst != 0 {
			if predSet[e.Dst] {
				regState[e.Dst] = predictable
			} else {
				regState[e.Dst] = dependent
			}
		}
		if e.Op == isa.OpStore {
			memWritten[e.Addr] = true
		}
	}

	memState := make(map[uint64]uint8) // same-thread stores in window
	end := oc.t1 + window
	if end > tr.Len() {
		end = tr.Len()
	}
	for t := oc.t1; t < end; t++ {
		e := &tr.Events[t]
		state := clean
		regs, n := readsOf(e)
		for i := 0; i < n; i++ {
			if s := regState[regs[i]]; s > state {
				state = s
			}
		}
		if e.Op == isa.OpLoad {
			if s, ok := memState[e.Addr]; ok {
				if s > state {
					state = s
				}
			} else if memWritten[e.Addr] {
				// Produced by the spawning thread's region: memory
				// values are not predicted (paper §4.1), so dependent.
				state = dependent
			}
		}
		switch state {
		case clean:
			indep++
			pred++
		case predictable:
			pred++
		}
		if e.Op.WritesReg() && e.Dst != 0 {
			regState[e.Dst] = state
		}
		if e.Op == isa.OpStore {
			memState[e.Addr] = state
		}
	}
	return indep, pred
}

// readsOf returns the registers a trace event reads.
func readsOf(e *trace.Event) ([2]isa.Reg, int) {
	ins := isa.Instruction{Op: e.Op, Dst: e.Dst, Src1: e.Src1, Src2: e.Src2}
	return ins.Reads()
}
