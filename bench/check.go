package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
)

// Spec is one simulation configuration as the harness sends it: the
// /v1/batch spec shape (the size is global, always "test").
type Spec struct {
	Bench     string `json:"bench"`
	Policy    string `json:"policy"`
	TUs       int    `json:"tus"`
	Predictor string `json:"predictor"`
	Overhead  int64  `json:"overhead"`
}

// Key names the spec for maps and dedup.
func (s Spec) Key() string {
	return fmt.Sprintf("%s/%s/%d/%s/%d", s.Bench, s.Policy, s.TUs, s.Predictor, s.Overhead)
}

// simBody is a /v1/simulate response body (or one /v1/batch line,
// which prepends an index).
type simBody struct {
	Index  *int            `json:"index"`
	Error  string          `json:"error"`
	Bench  string          `json:"bench"`
	Policy string          `json:"policy"`
	TUs    int             `json:"tus"`
	Result *cluster.Result `json:"result"`
}

// figureBody is a /v1/figures/{id} response body.
type figureBody struct {
	ID      string     `json:"id"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// pairsBody is a /v1/pairs response body.
type pairsBody struct {
	Pairs []struct {
		Kind string  `json:"kind"`
		Prob float64 `json:"prob"`
		Dist float64 `json:"dist"`
	} `json:"pairs"`
}

// Checker holds the independent references every response is checked
// against. It is safe for concurrent use.
type Checker struct {
	// Committed is each benchmark's dynamic instruction count, computed
	// in-process by emulation (not by the simulator under test).
	Committed map[string]int64

	mu sync.Mutex
	// noneCycles is the first Cycles seen per benchmark under policy
	// "none": without spawning, the thread-unit count cannot matter.
	noneCycles map[string]int64
}

// NewChecker returns a checker over the given conservation counts.
func NewChecker(committed map[string]int64) *Checker {
	return &Checker{Committed: committed, noneCycles: make(map[string]int64)}
}

// SimBody decodes a /v1/simulate body (or batch line) and checks it
// against sp.
func (c *Checker) SimBody(sp Spec, body []byte) error {
	var b simBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("%s: decode: %w", sp.Key(), err)
	}
	if b.Error != "" {
		return fmt.Errorf("%s: error line: %s", sp.Key(), b.Error)
	}
	if b.Result == nil || b.Bench != sp.Bench || b.Policy != sp.Policy || b.TUs != sp.TUs {
		return fmt.Errorf("%s: body names %s/%s/%d or has no result", sp.Key(), b.Bench, b.Policy, b.TUs)
	}
	return c.Sim(sp, b.Result)
}

// Sim checks one simulation result against conservation and the
// simulator's invariants.
func (c *Checker) Sim(sp Spec, r *cluster.Result) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", sp.Key(), fmt.Sprintf(format, args...))
	}
	want, ok := c.Committed[sp.Bench]
	if !ok {
		return fail("no conservation reference")
	}
	if r.Committed != want {
		return fail("committed %d, emulator counts %d", r.Committed, want)
	}
	if r.Fetched < r.Committed {
		return fail("fetched %d < committed %d", r.Fetched, r.Committed)
	}
	if r.Cycles <= 0 || math.Abs(r.IPC*float64(r.Cycles)-float64(r.Committed)) > 1e-6*float64(r.Committed)+1e-6 {
		return fail("IPC %g × cycles %d != committed %d", r.IPC, r.Cycles, r.Committed)
	}
	const eps = 1e-9
	if r.AvgActiveThreads > r.AvgAllocatedThreads+eps || r.AvgAllocatedThreads > float64(sp.TUs)+eps {
		return fail("active %g, allocated %g, TUs %d", r.AvgActiveThreads, r.AvgAllocatedThreads, sp.TUs)
	}
	if r.VPHits > r.VPLookups || (sp.Predictor == "perfect" && r.VPHits != r.VPLookups) {
		return fail("VP hits %d of %d lookups under %s", r.VPHits, r.VPLookups, sp.Predictor)
	}
	if r.ThreadsCommitted > r.Spawns {
		return fail("%d threads committed of %d spawns", r.ThreadsCommitted, r.Spawns)
	}
	if sp.Policy == "none" {
		if r.Spawns != 0 {
			return fail("%d spawns under policy none", r.Spawns)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if prev, ok := c.noneCycles[sp.Bench]; ok && prev != r.Cycles {
			return fail("policy none cycles %d, another TU count gave %d", r.Cycles, prev)
		}
		c.noneCycles[sp.Bench] = r.Cycles
	}
	return nil
}

// NoneCycles returns the single-thread cycle count recorded for a
// benchmark under policy "none" (0 if none was seen).
func (c *Checker) NoneCycles(bench string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noneCycles[bench]
}

// Figure checks the properties of the figures that carry them: fig2
// coverage, fig3 speed-ups and their harmonic mean, fig4 thread
// counts. baseCycles, when non-nil, maps each benchmark to its
// policy-none/1-TU cycle count from /v1/simulate; fig3's base column
// must equal it. Other figures only have to decode.
func Figure(id string, body []byte, baseCycles map[string]int64) error {
	var f figureBody
	if err := json.Unmarshal(body, &f); err != nil {
		return fmt.Errorf("%s: decode: %w", id, err)
	}
	if f.ID != id || len(f.Rows) == 0 {
		return fmt.Errorf("%s: body is figure %q with %d rows", id, f.ID, len(f.Rows))
	}
	benchRows := f.Rows[:len(f.Rows)-1] // the last row is the mean
	switch id {
	case "fig2":
		col := column(f.Columns, "coverage")
		for _, row := range benchRows {
			v, err := cellFloat(row, col)
			if err != nil || v < 90 {
				return fmt.Errorf("fig2: %s coverage %q below 90%% (%v)", row[0], row[col], err)
			}
		}
	case "fig3":
		var sp []float64
		for _, row := range benchRows {
			base, err1 := cellFloat(row, 1)
			smt, err2 := cellFloat(row, 2)
			if err1 != nil || err2 != nil || smt <= 0 {
				return fmt.Errorf("fig3: %s: bad cycles %q/%q", row[0], row[1], row[2])
			}
			v := base / smt
			if err := cellNear(row, 3, v); err != nil {
				return fmt.Errorf("fig3: %s speed-up: %w", row[0], err)
			}
			if want, ok := baseCycles[row[0]]; baseCycles != nil && (!ok || int64(base) != want) {
				return fmt.Errorf("fig3: %s base-cycles %s, /v1/simulate none/1-TU gives %d", row[0], row[1], want)
			}
			sp = append(sp, v)
		}
		inv := 0.0
		for _, v := range sp {
			inv += 1 / v
		}
		last := f.Rows[len(f.Rows)-1]
		if err := cellNear(last, 3, float64(len(sp))/inv); err != nil {
			return fmt.Errorf("fig3: Hmean: %w", err)
		}
	case "fig4":
		for _, row := range benchRows {
			act, err1 := cellFloat(row, 1)
			alloc, err2 := cellFloat(row, 2)
			if err1 != nil || err2 != nil || act > alloc+0.01 || alloc > 16 {
				return fmt.Errorf("fig4: %s active %q allocated %q (want active <= allocated <= 16)", row[0], row[1], row[2])
			}
		}
	}
	return nil
}

// Pairs checks a /v1/pairs body: every profile-selected pair passes
// the paper's thresholds (probability >= 0.95, distance >= 32). It
// returns how many profile pairs it checked.
func Pairs(body []byte) (int, error) {
	var p pairsBody
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("pairs: decode: %w", err)
	}
	n := 0
	for i, q := range p.Pairs {
		if q.Kind != "profile" {
			continue
		}
		if q.Prob < 0.95 || q.Dist < 32 {
			return n, fmt.Errorf("pairs: pair %d has prob %g dist %g", i, q.Prob, q.Dist)
		}
		n++
	}
	return n, nil
}

// BatchLine checks that one /v1/batch NDJSON line is byte-identical to
// the /v1/simulate body for the same spec: the compacted body with the
// line's index prepended.
func BatchLine(line []byte, index int, simulate []byte) error {
	var c bytes.Buffer
	if err := json.Compact(&c, simulate); err != nil {
		return fmt.Errorf("batch line %d: compact reference: %w", index, err)
	}
	want := fmt.Sprintf(`{"index":%d,%s`, index, c.Bytes()[1:])
	if got := string(bytes.TrimSuffix(line, []byte("\n"))); got != want {
		return fmt.Errorf("batch line %d differs from /v1/simulate body", index)
	}
	return nil
}

// SameBody checks byte parity between two bodies for one spec.
func SameBody(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: body differs from reference (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}

// NoRecompute checks a /v1/stats body of a node restarted on a warm
// store: it ran no simulation, emulation, table or reach job.
func NoRecompute(stats []byte) error {
	var s struct {
		Engine struct {
			Latency map[string]struct {
				Count uint64 `json:"count"`
			} `json:"latency"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(stats, &s); err != nil {
		return fmt.Errorf("stats: decode: %w", err)
	}
	for _, kind := range []string{"sim", "emu", "table", "reach"} {
		if n := s.Engine.Latency[kind].Count; n != 0 {
			return fmt.Errorf("restarted node ran %d %s jobs", n, kind)
		}
	}
	return nil
}

func column(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

func cellFloat(row []string, i int) (float64, error) {
	if i < 0 || i >= len(row) {
		return 0, fmt.Errorf("no column %d", i)
	}
	return strconv.ParseFloat(strings.TrimSuffix(row[i], "%"), 64)
}

// cellNear checks that a printed cell equals v to the cell's own
// printed precision.
func cellNear(row []string, i int, v float64) error {
	got, err := cellFloat(row, i)
	if err != nil {
		return err
	}
	decimals := 0
	if dot := strings.IndexByte(row[i], '.'); dot >= 0 {
		decimals = len(strings.TrimSuffix(row[i], "%")) - dot - 1
	}
	if math.Abs(got-v) > 0.5*math.Pow(10, -float64(decimals))+1e-9 {
		return fmt.Errorf("cell %q, recomputed %g", row[i], v)
	}
	return nil
}
