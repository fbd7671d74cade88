// Command bench is spmt-server's benchmark. It boots real spmt-server
// child processes on loopback, drives one named workload against them
// from a seed, checks every response, and prints one JSON result line:
//
//	go run . --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the same inputs in-process through
// each layer's public functions and prints per-layer metrics. run.sh
// builds the server and this command and is the entry point; see
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness) (*outcome, error){
	"sweep-cold":   sweepCold,
	"warm-restart": warmRestart,
}

// harness is one run's shared state.
type harness struct {
	start    time.Time
	workload string
	seed     int64
	seconds  time.Duration
	consS    float64 // process start → conservation reference computed
	bin      string  // the spmt-server binary
	dir      string  // this run's temporary directory (stores, logs)
	chk      *Checker
	c        *client
	live     nodes // every node started, killed on exit
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	setupS            float64 // the workload's set-up (README)
	rounds            []round // every whole round, in order
	conc              int     // rounds in flight at once (closed-loop clients)
	timedS            float64 // length of the timed phase
	cpuS              float64 // server CPU over the timed phase
	ops               int     // denominator of cpu_ms_per_op
	rssMB             float64 // server peak RSS
	record            map[string]any
}

// round is one whole round of a workload's operations.
type round struct {
	s     float64   // wall time
	latMS []float64 // latency of each completed request
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	wl := flag.String("workload", "", "workload name: sweep-cold or warm-restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = replay the inputs in-process and print per-layer metrics")
	bin := flag.String("server", ".bench_build/spmt-server", "spmt-server binary")
	root := flag.String("root", ".bench_build", "directory for temporary stores and result records")
	flag.Parse()

	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (sweep-cold or warm-restart), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	h := &harness{
		start:    start,
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		bin:      *bin,
		c:        newClient(),
	}
	var err error
	if h.dir, err = workDir(*root, *wl, *seed); err != nil {
		fatal(err)
	}
	res, record, err := h.execute(run, *trace == 1)
	for _, n := range h.live {
		n.kill()
	}
	h.c.close()
	os.RemoveAll(h.dir)
	stamp := stamps(*seed)
	stamp["workload"] = *wl
	stamp["trace"] = *trace
	for k, v := range record {
		stamp[k] = v
	}
	if err != nil {
		stamp["error"] = err.Error()
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *wl, err)
		res = result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}}
	}
	stamp["result"] = res
	if err := writeRecord(*root, *wl, *seed, *trace, stamp); err != nil {
		fmt.Fprintf(os.Stderr, "bench: record: %v\n", err)
	}
	line, _ := json.Marshal(stamp)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// execute runs the workload (or its traced replay) and renders the
// metrics.
func (h *harness) execute(run func(*harness) (*outcome, error), traced bool) (result, map[string]any, error) {
	committed, err := conservation()
	if err != nil {
		return result{}, nil, err
	}
	h.consS = secondsSince(h.start)
	h.chk = NewChecker(committed)
	if traced {
		return h.replay()
	}
	o, err := run(h)
	if err != nil {
		if o != nil {
			return result{Attempted: o.attempted, Failed: o.failed}, o.record, err
		}
		return result{}, nil, err
	}
	return o.result(), o.record, nil
}

// result renders the end-to-end metrics. Latency and throughput are
// taken per round and the run reports the median round: a burst of lost
// CPU on a shared host then moves a few rounds, not the figure. The
// whole-run percentiles and rate are kept in the record.
func (o *outcome) result() result {
	var dur, p50, p95, rate, all []float64
	for _, r := range o.rounds {
		dur = append(dur, r.s)
		if len(r.latMS) > 0 {
			p50 = append(p50, percentile(r.latMS, 50))
			p95 = append(p95, percentile(r.latMS, 95))
		}
		rate = append(rate, float64(len(r.latMS))/r.s)
		all = append(all, r.latMS...)
	}
	m := map[string]metric{
		"setup_s":       {o.setupS, "s"},
		"sweep_s":       {median(dur), "s"},
		"cpu_ms_per_op": {1000 * o.cpuS / float64(max(o.ops, 1)), "ms"},
		"peak_rss_mb":   {o.rssMB, "MB"},
		"p50_ms":        {median(p50), "ms"},
		"p95_ms":        {median(p95), "ms"},
		"rps":           {float64(max(o.conc, 1)) * median(rate), "req/s"},
	}
	if o.record == nil {
		o.record = map[string]any{}
	}
	// p99 is recorded, not gated: on a shared 2-core box it spreads more
	// run to run than any bound worth holding a change to (README).
	o.record["run_p50_ms"] = percentile(all, 50)
	o.record["run_p95_ms"] = percentile(all, 95)
	o.record["run_p99_ms"] = percentile(all, 99)
	o.record["run_rps"] = float64(len(all)) / o.timedS
	o.record["samples"] = len(all)
	o.record["rounds"] = len(o.rounds)
	return result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// writeRecord keeps the stamped result of every run under root/results.
func writeRecord(root, wl string, seed int64, trace int, v any) error {
	dir := filepath.Join(root, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", wl, seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func nproc() int { return runtime.NumCPU() }

// percentile interpolates linearly between the closest ranks.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
