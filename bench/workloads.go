package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/workload"
)

// boot starts a node with its store under the run's directory and
// registers it for cleanup.
func (h *harness) boot(name string, extra ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return h.bootAt(addr, name, extra...)
}

func (h *harness) bootAt(addr, name string, extra ...string) (*node, error) {
	n, err := startNode(h.bin, addr, filepath.Join(h.dir, name), extra...)
	if err != nil {
		return nil, err
	}
	h.live = append(h.live, n)
	return n, nil
}

// sweepCold: a fresh disk-backed node answers all 15 figures at size
// test, then one never-seen /v1/batch grid, one request at a time.
// Each round boots a fresh node; rounds repeat until --seconds is
// spent. Its set-up is the conservation pass plus the boot of a fresh
// node; every round repeats the boot (a new process on an empty store),
// so setup_s takes the median boot.
func sweepCold(h *harness) (*outcome, error) {
	grid := newSweepGrid(h.seed)
	gridSpecs := grid.specs()
	o := &outcome{}
	var boots, rss, cpuMS []float64
	var n *node
	var deadline time.Time
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if n != nil {
			n.kill()
			os.RemoveAll(n.Dir)
		}
		tb := time.Now()
		var err error
		if n, err = h.boot(fmt.Sprintf("node%d", r)); err != nil {
			return o, err
		}
		boots = append(boots, secondsSince(tb))
		if r == 0 {
			// Rounds repeat until --seconds after the first node is ready.
			deadline = time.Now().Add(h.seconds)
		}
		cpu0, err := n.cpuSeconds()
		if err != nil {
			return o, err
		}
		t0 := time.Now()
		var lat []float64
		figs := make(map[string][]byte)
		for _, id := range expt.FigureIDs() {
			ts := time.Now()
			body, err := h.c.get(n.URL + "/v1/figures/" + id + "?size=test")
			o.attempted++
			if err != nil {
				o.failed++
				continue
			}
			lat = append(lat, ms(ts))
			figs[id] = body
		}
		ts := time.Now()
		body, err := h.c.post(n.URL+"/v1/batch", map[string]any{"size": "test", "sweep": grid})
		o.attempted++
		if err != nil {
			o.failed++
		} else {
			lat = append(lat, ms(ts))
		}
		o.rounds = append(o.rounds, round{secondsSince(t0), lat})
		o.timedS += secondsSince(t0)
		cpu1, err := n.cpuSeconds()
		if err != nil {
			return o, err
		}
		peak, err := n.peakRSSMB()
		if err != nil {
			return o, err
		}
		rss = append(rss, peak)
		jobs, _, err := h.c.engineJobs(n.URL)
		if err != nil {
			return o, err
		}
		sims := int(jobs["sim"].Count)
		o.cpuS += cpu1 - cpu0
		o.ops += sims
		cpuMS = append(cpuMS, 1000*(cpu1-cpu0)/float64(max(sims, 1)))

		// Checks, untimed: every grid line against its spec and its
		// /v1/simulate body, fig3 against the baselines, the tables'
		// pairs against their thresholds.
		if body != nil {
			if err := h.checkBatch(n.URL, gridSpecs, body); err != nil {
				return o, err
			}
		}
		base := make(map[string]int64)
		for _, b := range workload.Benchmarks {
			sp := Spec{Bench: b, Policy: "none", TUs: 1, Predictor: "perfect"}
			sb, err := h.c.simulate(n.URL, sp)
			if err != nil {
				return o, err
			}
			if err := h.chk.SimBody(sp, sb); err != nil {
				return o, err
			}
			base[b] = h.chk.NoneCycles(b)
		}
		for id, fb := range figs {
			if err := Figure(id, fb, base); err != nil {
				return o, err
			}
		}
		// The spawn tables the figures built: every profile-selected
		// pair passes the paper's thresholds.
		profilePairs := 0
		for _, b := range workload.Benchmarks {
			for _, p := range tablePolicies {
				body, err := h.c.post(n.URL+"/v1/pairs", map[string]string{"bench": b, "size": "test", "policy": p})
				if err != nil {
					return o, err
				}
				k, err := Pairs(body)
				if err != nil {
					return o, fmt.Errorf("%s/%s: %w", b, p, err)
				}
				profilePairs += k
			}
		}
		if profilePairs == 0 {
			return o, fmt.Errorf("no spawn table holds a profile pair to check")
		}
	}
	o.rssMB = median(rss)
	o.setupS = h.consS + median(boots)
	o.record = map[string]any{"batch_grid": grid, "cpu_ms_per_sim_rounds": cpuMS, "rss_mb_rounds": rss,
		"conservation_s": h.consS, "boot_s_rounds": boots}
	return o, nil
}

// checkBatch checks a /v1/batch response against its specs: each line
// passes the result checks and is byte-identical to the /v1/simulate
// body for the same spec.
func (h *harness) checkBatch(base string, specs []Spec, body []byte) error {
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) != len(specs) {
		return fmt.Errorf("batch of %d specs returned %d lines", len(specs), len(lines))
	}
	for i, sp := range specs {
		if err := h.chk.SimBody(sp, lines[i]); err != nil {
			return err
		}
		sb, err := h.c.simulate(base, sp)
		if err != nil {
			return err
		}
		if err := BatchLine(lines[i], i, sb); err != nil {
			return err
		}
	}
	return nil
}

// warmSpecCount is the size of the seeded spec set warm-restart
// re-requests.
const warmSpecCount = 6 // per benchmark

// warmRestart: a first node computes a seeded spec set into its store
// and drains; a second node boots on that store, and nproc closed-loop
// clients re-request zipfian picks through /v1/simulate and /v1/batch.
func warmRestart(h *harness) (*outcome, error) {
	warm := newSpecSource(h.seed).warmSet(warmSpecCount)
	first, err := h.boot("store")
	if err != nil {
		return nil, err
	}
	refs, err := h.computeRefs(first.URL, warm)
	if err != nil {
		return nil, err
	}
	if err := first.stop(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	n, err := h.bootAt(first.URL[len("http://"):], "store")
	if err != nil {
		return nil, err
	}
	bootS := secondsSince(t0)
	o := &outcome{setupS: secondsSince(h.start)}
	o.record = map[string]any{"restart_boot_s": bootS, "warm_specs": len(warm)}
	if err := h.closedLoop(o, n, warm, refs); err != nil {
		return o, err
	}
	_, stats, err := h.c.engineJobs(n.URL)
	if err != nil {
		return o, err
	}
	return o, NoRecompute(stats)
}

// computeRefs computes specs on a node through one /v1/batch, checks
// every line, and returns each spec's /v1/simulate body.
func (h *harness) computeRefs(base string, specs []Spec) ([][]byte, error) {
	lines, err := h.c.batch(base, specs)
	if err != nil {
		return nil, err
	}
	refs := make([][]byte, len(specs))
	for i, sp := range specs {
		if err := h.chk.SimBody(sp, lines[i]); err != nil {
			return nil, err
		}
		if refs[i], err = h.c.simulate(base, sp); err != nil {
			return nil, err
		}
		if err := BatchLine(lines[i], i, refs[i]); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// A warm-restart client round: restartSims /v1/simulate requests, then
// restartBatches /v1/batch requests of batchSize specs each (one request
// in eight is a batch), all zipfian picks from the warm set.
const (
	restartSims    = 28
	restartBatches = 4
	batchSize      = 4
)

// closedLoop runs nproc clients against n, each doing whole rounds
// until --seconds is spent. refs are the warm set's reference bodies;
// every answer must equal its ref.
func (h *harness) closedLoop(o *outcome, n *node, warm []Spec, refs [][]byte) error {
	compact := make([][]byte, len(refs))
	for i, r := range refs {
		var b bytes.Buffer
		if err := json.Compact(&b, r); err != nil {
			return err
		}
		compact[i] = b.Bytes()
	}
	cpu0, err := n.cpuSeconds()
	if err != nil {
		return err
	}
	type clientOut struct {
		attempted, failed int
		rounds            []round
		err               error
	}
	outs := make([]clientOut, nproc())
	start := time.Now()
	deadline := start.Add(h.seconds)
	var wg sync.WaitGroup
	for ci := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co := &outs[ci]
			r := rand.New(rand.NewSource(h.seed*1000 + int64(ci)))
			zipf := rand.NewZipf(r, 1.2, 1, uint64(len(warm)-1))
			perm := r.Perm(len(warm))
			pickWarm := func() int { return perm[zipf.Uint64()] }
			// A request that errors counts as failed; an answer that fails
			// a check fails the run.
			bad := func(err error) {
				if co.err == nil {
					co.err = err
				}
			}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				var lat []float64
				for k := 0; k < restartSims+restartBatches; k++ {
					ts := time.Now()
					co.attempted++
					if k < restartSims {
						i := pickWarm()
						body, err := h.c.simulate(n.URL, warm[i])
						if err != nil {
							co.failed++
							continue
						}
						lat = append(lat, ms(ts))
						if err := SameBody(warm[i].Key(), body, refs[i]); err != nil {
							bad(err)
						}
						continue
					}
					idx := make([]int, batchSize)
					specs := make([]Spec, batchSize)
					for j := range idx {
						idx[j] = pickWarm()
						specs[j] = warm[idx[j]]
					}
					lines, err := h.c.batch(n.URL, specs)
					if err != nil {
						co.failed++
						continue
					}
					lat = append(lat, ms(ts))
					for j, line := range lines {
						want := fmt.Sprintf(`{"index":%d,%s`+"\n", j, compact[idx[j]][1:])
						if string(line) != want {
							bad(fmt.Errorf("batch line %d for %s differs from reference", j, specs[j].Key()))
						}
					}
				}
				co.rounds = append(co.rounds, round{secondsSince(t0), lat})
			}
		}()
	}
	wg.Wait()
	o.timedS = secondsSince(start)
	cpu1, err := n.cpuSeconds()
	if err != nil {
		return err
	}
	if o.rssMB, err = n.peakRSSMB(); err != nil {
		return err
	}
	o.cpuS = cpu1 - cpu0
	o.conc = len(outs)
	for _, co := range outs {
		o.attempted += co.attempted
		o.failed += co.failed
		o.rounds = append(o.rounds, co.rounds...)
		for _, r := range co.rounds {
			o.ops += len(r.latMS)
		}
		if co.err != nil && err == nil {
			err = co.err
		}
	}
	return err
}

func ms(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
