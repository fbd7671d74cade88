// Speculative artifact precomputation: the paper's spawn-point idea
// applied to the request stream. Each resolved request spec is one
// "instruction" in a program trace; the predictor (internal/spec)
// learns which spec tends to follow which, and the speculator launches
// the predicted NEXT artifact while scheduler cores are idle — so a
// client sweeping a config space finds each successive artifact
// already in the tiered store. Speculation is strictly additive:
// launches start only while a core is idle and no demand run waits
// (sched's speculative class),
// bypass admission accounting, stand down when the gate saturates or
// the server drains, and never change a /v1 response byte.
package server

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/workload"
)

// specPayload is the launch recipe recorded with every predictor edge:
// enough resolved state to recompute the artifact without re-parsing a
// request.
type specPayload struct {
	kind  string // "bench" or "sim"
	bench string
	sz    workload.SizeClass
	spec  expt.SimSpec // kind "sim" only
}

// speculation owns one server's predictor + speculator pair and the
// request-stream history feeding them.
type speculation struct {
	s    *Server
	pred *spec.Predictor
	sp   *spec.Speculator

	mu   sync.Mutex
	last string // previous observed artifact key (the Markov state)
}

// newSpeculation wires the speculator's hooks into the server: pause
// on drain/saturation, launch only self-owned cold keys, submit
// through the scheduler's idle-only task class.
func newSpeculation(s *Server) *speculation {
	sc := &speculation{s: s, pred: spec.NewPredictor(0, 0)}
	sc.sp = spec.NewSpeculator(spec.Options{
		Paused: func() bool {
			return s.draining.Load() || s.gate.Saturated()
		},
		Eligible: func(key string) bool {
			if s.cluster != nil && !s.cluster.Owns(key) {
				return false
			}
			return !s.eng.Has(key)
		},
		Launch: sc.launch,
		Submit: func(fn func()) (<-chan struct{}, func()) {
			return s.eng.Sched().Speculate("spec", fn)
		},
	})
	return sc
}

// note records one demand-resolved artifact spec: score a hit if the
// key was speculatively launched, learn the transition from the
// previous spec, and enqueue the predicted successors of this one.
func (sc *speculation) note(key string, p specPayload) {
	sc.sp.MarkDemand(key)
	sc.mu.Lock()
	prev := sc.last
	sc.last = key
	sc.mu.Unlock()
	sc.pred.Observe(prev, key, p)
	if preds := sc.pred.Predict(key); len(preds) > 0 {
		sc.sp.Enqueue(preds)
	}
}

// launch computes one predicted artifact through the normal engine
// path — singleflight, tiered store, write-through replication — under
// a fresh trace whose exec spans are marked speculative. The scheduler
// starts it from its speculative queue once a core is idle.
func (sc *speculation) launch(ctx context.Context, p spec.Prediction) (int64, error) {
	pl, ok := p.Payload.(specPayload)
	if !ok {
		return 0, fmt.Errorf("speculation: bad payload %T for %q", p.Payload, p.Key)
	}
	ctx = engine.WithSpeculative(ctx)
	ctx = obs.ContextWithTrace(ctx, sc.s.tracer.Trace(""))
	suite, err := expt.NewSuiteEngineCtx(ctx, sc.s.eng, pl.sz, []string{pl.bench})
	if err != nil {
		return 0, err
	}
	if pl.kind == "sim" {
		if _, err := suite.Sim(suite.Bench(pl.bench), pl.spec); err != nil {
			return 0, err
		}
	}
	return sc.storedBytes(p.Key), nil
}

// storedBytes approximates the store cost of the launched artifact for
// the wasted-bytes gauge, mirroring the cache's own charging rule.
func (sc *speculation) storedBytes(key string) int64 {
	v, ok := sc.s.eng.Peek(key)
	if !ok {
		return 0
	}
	if s, ok := v.(engine.Sizer); ok {
		if b := s.ApproxBytes(); b > 0 {
			return b
		}
	}
	return 1 << 10
}

// close stops the speculator (withdrawing any queued launch).
func (sc *speculation) close() { sc.sp.Close() }

// specStats is the /v1/stats speculation section.
type specStats struct {
	spec.Stats
	Predictor spec.PredictorStats `json:"predictor"`
}

// stats snapshots both halves.
func (sc *speculation) stats() specStats {
	return specStats{Stats: sc.sp.Stats(), Predictor: sc.pred.Stats()}
}

// noteAnalyze feeds one resolved analyze spec into the predictor (
// no-op when speculation is disabled).
func (s *Server) noteAnalyze(bench string, sz workload.SizeClass) {
	if s.spec == nil {
		return
	}
	s.spec.note(expt.BenchKey(bench, sz), specPayload{kind: "bench", bench: bench, sz: sz})
}

// noteSim feeds one resolved simulate spec into the predictor (no-op
// when speculation is disabled).
func (s *Server) noteSim(sz workload.SizeClass, sp expt.SimSpec) {
	if s.spec == nil {
		return
	}
	s.spec.note(expt.SimKey(sz, sp), specPayload{kind: "sim", bench: sp.Bench, sz: sz, spec: sp})
}
