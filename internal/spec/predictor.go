// Package spec is the spawn-point predictor behind speculative
// artifact precomputation — the source paper's idea (predict
// profitable spawn points, run them speculatively, report spawn-scheme
// accuracy) applied to the server's own job DAG. The request stream is
// a program trace: each resolved artifact spec (an analyze target, a
// simulate config) is one "instruction", and clients sweeping a config
// space make the stream highly predictable — after (cfg, n=64) the
// same client tends to ask for n=128, then n=256. The Predictor learns
// those transitions in a bounded per-key successor table (a first-
// order Markov chain, degrading gracefully to last-successor when the
// successor bound is 1); the Speculator turns predictions into
// background computations on idle cores and keeps the books the
// paper keeps for spawn schemes: predictions, launches, hits, wasted
// bytes, accuracy.
package spec

import (
	"container/list"
	"sort"
	"sync"
)

// Prediction is one predicted successor of an observed key.
type Prediction struct {
	// Key is the artifact key the predictor expects to be requested
	// next; Payload is the opaque launch recipe recorded at Observe
	// time (the server stores the resolved spec needed to recompute
	// the artifact without re-parsing a request).
	Key     string
	Payload any
	// Count is how many times this transition has been observed.
	Count uint64
}

// successor is one edge of the transition table.
type successor struct {
	key     string
	payload any
	count   uint64
}

// state is the bounded successor list of one source key.
type state struct {
	key  string
	succ []successor
}

// Predictor is a bounded first-order Markov / last-successor table
// over artifact keys. States are LRU-bounded: observing a transition
// from a new source key when the table is full evicts the least
// recently observed state. Each state keeps at most maxSuccessors
// edges; a new successor observed on a full state replaces the
// lowest-count edge (ties broken by key order, deterministically).
// All methods are safe for concurrent use.
type Predictor struct {
	mu            sync.Mutex
	maxStates     int
	maxSuccessors int
	ll            *list.List // MRU at front; values are *state
	states        map[string]*list.Element

	observations uint64
	evictions    uint64
}

// NewPredictor builds a predictor bounded to maxStates source keys of
// maxSuccessors edges each (<=0 selects defaults 256 and 4).
func NewPredictor(maxStates, maxSuccessors int) *Predictor {
	if maxStates <= 0 {
		maxStates = 256
	}
	if maxSuccessors <= 0 {
		maxSuccessors = 4
	}
	return &Predictor{
		maxStates:     maxStates,
		maxSuccessors: maxSuccessors,
		ll:            list.New(),
		states:        make(map[string]*list.Element),
	}
}

// Observe records the transition prev→key. payload is kept with the
// edge and handed back verbatim in Predictions for key — the launch
// recipe. A prev of "" (no history yet) records nothing.
func (p *Predictor) Observe(prev, key string, payload any) {
	if prev == "" || key == "" || prev == key {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observations++
	el, ok := p.states[prev]
	if !ok {
		if p.ll.Len() >= p.maxStates {
			old := p.ll.Back()
			p.ll.Remove(old)
			delete(p.states, old.Value.(*state).key)
			p.evictions++
		}
		el = p.ll.PushFront(&state{key: prev})
		p.states[prev] = el
	} else {
		p.ll.MoveToFront(el)
	}
	st := el.Value.(*state)
	for i := range st.succ {
		if st.succ[i].key == key {
			st.succ[i].count++
			st.succ[i].payload = payload
			return
		}
	}
	if len(st.succ) < p.maxSuccessors {
		st.succ = append(st.succ, successor{key: key, payload: payload, count: 1})
		return
	}
	// Replace the weakest edge so a shifted sweep pattern can be
	// relearned; pick deterministically under count ties.
	weakest := 0
	for i := 1; i < len(st.succ); i++ {
		if st.succ[i].count < st.succ[weakest].count ||
			(st.succ[i].count == st.succ[weakest].count && st.succ[i].key < st.succ[weakest].key) {
			weakest = i
		}
	}
	st.succ[weakest] = successor{key: key, payload: payload, count: 1}
}

// Predict returns the recorded successors of key, strongest first
// (count descending, key ascending under ties — a deterministic
// order). The slice is a copy; nil when key has no history. Predicting
// does not touch recency: only Observe reshapes the table.
func (p *Predictor) Predict(key string) []Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.states[key]
	if !ok {
		return nil
	}
	st := el.Value.(*state)
	if len(st.succ) == 0 {
		return nil
	}
	out := make([]Prediction, len(st.succ))
	for i, sc := range st.succ {
		out[i] = Prediction{Key: sc.key, Payload: sc.payload, Count: sc.count}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// PredictorStats is a point-in-time snapshot of the table.
type PredictorStats struct {
	// States is the current number of source keys tracked;
	// Observations counts every recorded transition; Evictions counts
	// states dropped by the LRU bound.
	States       int    `json:"states" metric:"spmt_spec_predictor_states" help:"Source keys tracked by the transition table."`
	Observations uint64 `json:"observations" metric:"spmt_spec_predictor_observations_total" help:"Transitions recorded by the predictor."`
	Evictions    uint64 `json:"evictions" metric:"spmt_spec_predictor_evictions_total" help:"Predictor states dropped by the LRU bound."`
}

// Stats snapshots the predictor counters.
func (p *Predictor) Stats() PredictorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PredictorStats{
		States:       p.ll.Len(),
		Observations: p.observations,
		Evictions:    p.evictions,
	}
}
