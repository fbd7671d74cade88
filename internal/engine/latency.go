// Per-job-kind latency accounting: every Run invocation is timed and
// recorded into a fixed-bucket histogram keyed by the job's kind (the
// leading segment of its cache key — "emu", "reach", "sim", …), so
// /v1/stats exposes where a full-size sweep spends its time without any
// external profiler.
package engine

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyBucketsMS lists the histogram's bucket upper bounds in
// milliseconds; a final implicit +Inf bucket catches the rest. An
// array (not a slice) so counts sizing is a compile-time constant and
// no caller can mutate the bounds out from under live histograms.
var latencyBucketsMS = [...]float64{1, 5, 25, 100, 500, 2500, 10000}

// LatencyStats is one job kind's latency histogram snapshot.
type LatencyStats struct {
	// Count is the number of Run invocations of this kind.
	Count uint64 `json:"count"`
	// TotalMS and MaxMS aggregate wall time in milliseconds.
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
	// BucketsMS are the bucket upper bounds; Counts has one extra
	// trailing element for the +Inf bucket.
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []uint64  `json:"counts"`
}

// Hist converts the millisecond histogram into the seconds-based form
// /metrics exposes.
func (ls LatencyStats) Hist() obs.HistSnapshot {
	bounds := make([]float64, len(ls.BucketsMS))
	for i, ms := range ls.BucketsMS {
		bounds[i] = ms / 1000
	}
	return obs.HistSnapshot{
		Bounds: bounds,
		Counts: ls.Counts,
		Sum:    ls.TotalMS / 1000,
		Count:  ls.Count,
	}
}

// latencyHist is the mutable histogram behind a LatencyStats snapshot.
type latencyHist struct {
	count   uint64
	totalMS float64
	maxMS   float64
	counts  [len(latencyBucketsMS) + 1]uint64
}

func (h *latencyHist) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.count++
	h.totalMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
	i := sort.SearchFloat64s(latencyBucketsMS[:], ms)
	h.counts[i]++
}

func (h *latencyHist) snapshot() LatencyStats {
	s := LatencyStats{
		Count:     h.count,
		TotalMS:   h.totalMS,
		MaxMS:     h.maxMS,
		BucketsMS: append([]float64(nil), latencyBucketsMS[:]...),
		Counts:    make([]uint64, len(h.counts)),
	}
	copy(s.Counts, h.counts[:])
	return s
}

// latencyRecorder aggregates histograms per job kind.
type latencyRecorder struct {
	mu     sync.Mutex
	byKind map[string]*latencyHist
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{byKind: make(map[string]*latencyHist)}
}

func (r *latencyRecorder) observe(kind string, d time.Duration) {
	r.mu.Lock()
	h := r.byKind[kind]
	if h == nil {
		h = &latencyHist{}
		r.byKind[kind] = h
	}
	h.observe(d)
	r.mu.Unlock()
}

func (r *latencyRecorder) snapshot() map[string]LatencyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]LatencyStats, len(r.byKind))
	for k, h := range r.byKind {
		out[k] = h.snapshot()
	}
	return out
}

// JobKind extracts the job-kind label from a cache key: the segment
// before the first '/'. Keyless (ad-hoc) jobs are grouped as "adhoc".
func JobKind(key string) string {
	if key == "" {
		return "adhoc"
	}
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}
