package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/expt"
	"repro/internal/heuristic"
	"repro/internal/isa"
	"repro/internal/reach"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The pipeline configuration expt applies (its constants are
// unexported): CFG pruning to 90% coverage under 256 nodes, and the
// misspeculation window factor of profile-table pairs. serverSweep
// checks them against the hash in the node's simulation keys, and every
// replayed result against the node's own.
const (
	replayCoverage     = 0.90
	replayMaxNodes     = 256
	replayWindowFactor = 4
)

// replayPipeHash is the pipeline fingerprint expt puts in every
// simulation key when it runs the configuration above.
var replayPipeHash = engine.KeyHash("coverage", replayCoverage, "maxnodes", replayMaxNodes, "window", replayWindowFactor)

const mb = 1 << 20

// simCfg is one simulation as the engine keys it.
type simCfg struct {
	Bench, Policy string
	TUs           int
	Pred          cluster.PredictorKind
	Overhead      int64
	Removal       int64
	Occur         int
	Reassign      bool
	MinSize       int
}

var predictorKinds = map[string]cluster.PredictorKind{
	"perfect": cluster.Perfect, "stride": cluster.Stride,
	"context": cluster.Context, "last-value": cluster.LastValue,
}

func (s Spec) cfg() simCfg {
	return simCfg{Bench: s.Bench, Policy: s.Policy, TUs: s.TUs, Pred: predictorKinds[s.Predictor], Overhead: s.Overhead}
}

func (c simCfg) spec() expt.SimSpec {
	return expt.SimSpec{Bench: c.Bench, Policy: c.Policy, TUs: c.TUs, Predictor: c.Pred,
		Overhead: c.Overhead, Removal: c.Removal, Occur: c.Occur, Reassign: c.Reassign, MinSize: c.MinSize}
}

// parseSimKey recovers a simulation's configuration from its engine
// key, ".../<bench>/<policy>/tu%d/p%d/ov%d/rm%d/oc%d/ra%v/ms%d", so the
// replay runs exactly the simulations a server run executed.
func parseSimKey(key string) (simCfg, error) {
	f := strings.Split(key, "/")
	if len(f) < 9 || f[0] != "sim" {
		return simCfg{}, fmt.Errorf("not a sim key: %q", key)
	}
	f = f[len(f)-9:]
	var err error
	num := func(i int, prefix string) int64 {
		v, perr := strconv.ParseInt(strings.TrimPrefix(f[i], prefix), 10, 64)
		if (perr != nil || !strings.HasPrefix(f[i], prefix)) && err == nil {
			err = fmt.Errorf("sim key %q: bad field %q", key, f[i])
		}
		return v
	}
	c := simCfg{
		Bench: f[0], Policy: f[1], TUs: int(num(2, "tu")), Pred: cluster.PredictorKind(num(3, "p")),
		Overhead: num(4, "ov"), Removal: num(5, "rm"), Occur: int(num(6, "oc")),
		Reassign: f[7] == "ratrue", MinSize: int(num(8, "ms")),
	}
	if f[7] != "ratrue" && f[7] != "rafalse" && err == nil {
		err = fmt.Errorf("sim key %q: bad field %q", key, f[7])
	}
	return c, err
}

// benchArts is one benchmark's pipeline, built by direct calls.
type benchArts struct {
	prog   *isa.Program
	emu    *emu.Result
	graph  *cfg.Graph
	reach  *reach.Result
	tables map[string]*core.Table // by policy; "none" is nil
}

// layerClock accumulates per-layer call times.
type layerClock map[string][]float64

func (lc layerClock) time(layer string, f func() error) error {
	t := time.Now()
	err := f()
	lc[layer] = append(lc[layer], ms(t))
	return err
}

func (lc layerClock) sum(layer string) float64 {
	s := 0.0
	for _, v := range lc[layer] {
		s += v
	}
	return s
}

// replayPipeline builds every benchmark's pipeline through each
// layer's public function, timing each call.
func replayPipeline(lc layerClock) (map[string]*benchArts, int64, error) {
	arts := make(map[string]*benchArts)
	var instrs int64
	crits := map[string]core.Criterion{
		"profile": core.MaxDistance, "profile-indep": core.MaxIndependent, "profile-pred": core.MaxPredictable,
	}
	for _, b := range workload.Benchmarks {
		a := &benchArts{tables: map[string]*core.Table{"none": nil}}
		err := errors.Join(
			lc.time("workload", func() (err error) { a.prog, err = workload.Generate(b, workload.SizeTest); return }),
			lc.time("emu", func() (err error) {
				if a.emu, err = emu.Run(a.prog, emu.Config{CollectTrace: true}); err == nil {
					a.emu.Trace.BuildIndex()
				}
				return
			}),
			lc.time("cfg", func() (err error) {
				a.graph, err = cfg.Build(a.emu.Profile).Prune(replayCoverage, replayMaxNodes)
				return
			}),
			lc.time("reach", func() (err error) { a.reach, err = reach.Compute(a.graph); return }),
		)
		if err != nil {
			return nil, 0, fmt.Errorf("%s pipeline: %w", b, err)
		}
		for _, pol := range []string{"profile", "profile-indep", "profile-pred"} {
			if err := lc.time("core", func() (err error) {
				a.tables[pol], err = core.Select(a.emu.Profile, a.graph, a.reach, a.emu.Trace, core.Config{Criterion: crits[pol]})
				return
			}); err != nil {
				return nil, 0, fmt.Errorf("%s %s table: %w", b, pol, err)
			}
		}
		lc.time("heuristic", func() error {
			a.tables["heuristics"] = heuristic.Pairs(a.emu.Trace.Program, a.emu.Profile, a.emu.Trace, heuristic.Combined, heuristic.Config{})
			return nil
		})
		instrs += int64(a.emu.Instrs)
		arts[b] = a
	}
	return arts, instrs, nil
}

func simulate(a *benchArts, c simCfg) (*cluster.Result, error) {
	tab, ok := a.tables[c.Policy]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", c.Policy)
	}
	return cluster.Simulate(a.emu.Trace, cluster.Config{
		TUs: c.TUs, Pairs: tab, Predictor: c.Pred, SpawnOverhead: c.Overhead,
		RemovalCycles: c.Removal, RemovalOccurrences: c.Occur, Reassign: c.Reassign,
		MinThreadSize: c.MinSize, SpawnWindowFactor: replayWindowFactor,
	})
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// simReplay is what replaying a list of simulations measured.
type simReplay struct {
	perSimMS                    []float64
	totalMS, minstrPerS         float64
	allocsPerSim, allocMBPerSim float64
	gcFraction                  float64
}

// replaySims runs each simulation in turn, dropping every result, and
// checks each against the conservation reference and, where want is
// given, against the result the node computed for the same
// configuration.
func (h *harness) replaySims(arts map[string]*benchArts, cfgs []simCfg, want []*cluster.Result) (simReplay, error) {
	var r simReplay
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	var committed int64
	for i, c := range cfgs {
		t := time.Now()
		res, err := simulate(arts[c.Bench], c)
		if err != nil {
			return r, fmt.Errorf("replay %+v: %w", c, err)
		}
		d := ms(t)
		r.perSimMS = append(r.perSimMS, d)
		r.totalMS += d
		committed += res.Committed
		if res.Committed != h.chk.Committed[c.Bench] {
			return r, fmt.Errorf("replay %+v: committed %d, emulator counts %d", c, res.Committed, h.chk.Committed[c.Bench])
		}
		if want != nil && !reflect.DeepEqual(res, want[i]) {
			return r, fmt.Errorf("replay %+v: %d cycles, the node computed %d: the replay does not run the node's configuration", c, res.Cycles, want[i].Cycles)
		}
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	n := float64(len(cfgs))
	r.minstrPerS = float64(committed) / (r.totalMS / 1000) / 1e6
	r.allocsPerSim = float64(m1.Mallocs-m0.Mallocs) / n
	r.allocMBPerSim = float64(m1.TotalAlloc-m0.TotalAlloc) / n / mb
	if cpu1 > cpu0 {
		r.gcFraction = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return r, nil
}

// retainedPerResult holds one fig3-configuration result per benchmark
// and reports the heap each keeps live after a forced collection.
func retainedPerResult(arts map[string]*benchArts) (float64, []*cluster.Result, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var held []*cluster.Result
	for _, b := range workload.Benchmarks {
		res, err := simulate(arts[b], simCfg{Bench: b, Policy: "profile", TUs: 16})
		if err != nil {
			return 0, nil, err
		}
		held = append(held, res)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(held)) / mb, held, nil
}

// sweepRun is what one untraced sweep-cold round on a real node
// measured.
type sweepRun struct {
	jobs    map[string]jobTotal
	cpuMS   float64
	sims    []simCfg
	results []*cluster.Result // the node's result for each of sims
	reqs    int
	bytesW  int64 // bytes its disk tier wrote
}

// serverSweep runs one untraced sweep-cold round on a real node and
// returns the node's own job totals, its CPU over the sweep, and the
// simulations it executed with their results (read back from its
// drained store).
func (h *harness) serverSweep(grid sweepGrid) (sweepRun, error) {
	var sr sweepRun
	n, err := h.boot("sweep")
	if err != nil {
		return sr, err
	}
	cpu0, err := n.cpuSeconds()
	if err != nil {
		return sr, err
	}
	for _, id := range expt.FigureIDs() {
		if _, err := h.c.get(n.URL + "/v1/figures/" + id + "?size=test"); err != nil {
			return sr, err
		}
		sr.reqs++
	}
	if _, err := h.c.post(n.URL+"/v1/batch", map[string]any{"size": "test", "sweep": grid}); err != nil {
		return sr, err
	}
	sr.reqs++
	cpu1, err := n.cpuSeconds()
	if err != nil {
		return sr, err
	}
	sr.cpuMS = 1000 * (cpu1 - cpu0)
	if sr.jobs, _, err = h.c.engineJobs(n.URL); err != nil {
		return sr, err
	}
	if err := n.stop(); err != nil {
		return sr, err
	}
	dt, err := engine.OpenDiskTier(n.Dir, 0, codec.New())
	if err != nil {
		return sr, err
	}
	defer dt.Close()
	sr.bytesW = dt.Bytes()
	for _, k := range dt.Keys() {
		if !strings.HasPrefix(k, "sim/") {
			continue
		}
		if f := strings.Split(k, "/"); len(f) < 3 || f[2] != replayPipeHash {
			return sr, fmt.Errorf("node's sim key %q does not carry the replay's pipeline hash %s", k, replayPipeHash)
		}
		c, err := parseSimKey(k)
		if err != nil {
			return sr, err
		}
		v, ok := dt.Get(k)
		res, isRes := v.(*cluster.Result)
		if !ok || !isRes {
			return sr, fmt.Errorf("node's store cannot read back %s", k)
		}
		sr.sims = append(sr.sims, c)
		sr.results = append(sr.results, res)
	}
	if got, want := len(sr.sims), int(sr.jobs["sim"].Count); got != want {
		return sr, fmt.Errorf("store holds %d sims, node ran %d", got, want)
	}
	os.RemoveAll(n.Dir)
	return sr, nil
}

// restartSims is warm-restart's warm set, for the cluster.* replay.
func (h *harness) restartSims() []simCfg {
	specs := newSpecSource(h.seed).warmSet(warmSpecCount)
	out := make([]simCfg, len(specs))
	for i, s := range specs {
		out[i] = s.cfg()
	}
	return out
}

// hitAndHandler measures engine.Exec of a resident key and a warm
// /v1/simulate through the server's handler into a recorder.
func hitAndHandler() (hitUS, handlerUS float64, err error) {
	s := sched.New(1)
	defer s.Close()
	eng := engine.New(engine.Options{Sched: s})
	suite, err := expt.NewSuiteEngine(eng, workload.SizeTest, []string{"compress"})
	if err != nil {
		return 0, 0, err
	}
	sp := expt.SimSpec{Bench: "compress", Policy: "profile", TUs: 16}
	if _, err := suite.Sim(suite.Bench("compress"), sp); err != nil {
		return 0, 0, err
	}
	job := engine.Job{Key: expt.SimKey(workload.SizeTest, sp), Run: func(context.Context, []any) (any, error) {
		return nil, errors.New("resident key recomputed")
	}}
	var hits []float64
	for i := 0; i < 20000; i++ {
		t := time.Now()
		if _, err := eng.Exec(context.Background(), job); err != nil {
			return 0, 0, err
		}
		hits = append(hits, ms(t)*1000)
	}
	handler := server.New(eng).Handler()
	body := `{"bench":"compress","size":"test","policy":"profile","tus":16}`
	var hs []float64
	for i := 0; i < 5000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		handler.ServeHTTP(rec, req)
		hs = append(hs, ms(t)*1000)
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("warm handler: status %d", rec.Code)
		}
	}
	return median(hits), median(hs), nil
}

// codecRates encodes and decodes every artifact kind the disk tier
// stores, three times over, and returns the median MB/s each way.
func codecRates(arts map[string]*benchArts, held []*cluster.Result) (enc, dec float64, err error) {
	cd := codec.New()
	var objs []any
	for _, b := range workload.Benchmarks {
		a := arts[b]
		objs = append(objs, a.emu, a.graph, a.reach)
		for _, p := range tablePolicies {
			objs = append(objs, a.tables[p])
		}
	}
	for _, r := range held {
		objs = append(objs, r)
	}
	var encs, decs []float64
	for rep := 0; rep < 3; rep++ {
		var bytes int64
		var encS, decS float64
		for _, v := range objs {
			t := time.Now()
			kind, data, ok, err := cd.Encode(v)
			encS += secondsSince(t)
			if err != nil || !ok {
				return 0, 0, fmt.Errorf("encode %T: ok=%v err=%v", v, ok, err)
			}
			bytes += int64(len(data))
			t = time.Now()
			if _, err := cd.Decode(kind, data); err != nil {
				return 0, 0, fmt.Errorf("decode %s: %w", kind, err)
			}
			decS += secondsSince(t)
		}
		encs = append(encs, float64(bytes)/mb/encS)
		decs = append(decs, float64(bytes)/mb/decS)
	}
	return median(encs), median(decs), nil
}

// diskWarm builds warm-restart's seeded store in-process, then times
// OpenDiskTier + WarmFromDisk on it (median of three boots).
func (h *harness) diskWarm() (warmMS, storeMB float64, err error) {
	dir := filepath.Join(h.dir, "warmstore")
	specs := newSpecSource(h.seed).warmSet(warmSpecCount)
	if err := func() error {
		dt, err := engine.OpenDiskTier(dir, 0, codec.New())
		if err != nil {
			return err
		}
		s := sched.New(nproc())
		defer s.Close()
		eng := engine.New(engine.Options{Sched: s, Disk: dt})
		defer eng.Close()
		suite, err := expt.NewSuiteEngine(eng, workload.SizeTest, nil)
		if err != nil {
			return err
		}
		reqs := make([]expt.SimReq, len(specs))
		for i, sp := range specs {
			reqs[i] = expt.SimReq{Bench: suite.Bench(sp.Bench), Spec: sp.cfg().spec()}
		}
		_, err = suite.SimBatch(reqs)
		return err
	}(); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var times []float64
	for rep := 0; rep < 3; rep++ {
		s := sched.New(nproc())
		t := time.Now()
		dt, err := engine.OpenDiskTier(dir, 0, codec.New())
		if err != nil {
			s.Close()
			return 0, 0, err
		}
		eng := engine.New(engine.Options{Sched: s, Disk: dt})
		n := eng.WarmFromDisk()
		times = append(times, ms(t))
		storeMB = float64(dt.Bytes()) / mb
		eng.Close()
		s.Close()
		if n == 0 {
			return 0, 0, fmt.Errorf("warm store loaded nothing")
		}
	}
	os.RemoveAll(dir)
	return median(times), storeMB, nil
}

// sweepInProcess runs the sweep-cold figures and grid through expt on
// an engine with the given worker count and returns its wall time, the
// warm suite, and the function that closes the engine's scheduler.
func sweepInProcess(workers int, grid []Spec) (float64, *expt.Suite, func(), error) {
	s := sched.New(workers)
	eng := engine.New(engine.Options{Sched: s})
	t := time.Now()
	suite, err := expt.NewSuiteEngine(eng, workload.SizeTest, nil)
	if err != nil {
		s.Close()
		return 0, nil, nil, err
	}
	for _, id := range expt.FigureIDs() {
		if _, err := suite.Run(id); err != nil {
			s.Close()
			return 0, nil, nil, err
		}
	}
	reqs := make([]expt.SimReq, len(grid))
	for i, sp := range grid {
		reqs[i] = expt.SimReq{Bench: suite.Bench(sp.Bench), Spec: sp.cfg().spec()}
	}
	if _, err := suite.SimBatch(reqs); err != nil {
		s.Close()
		return 0, nil, nil, err
	}
	return secondsSince(t), suite, s.Close, nil
}

// shardReplay boots an in-process three-node R=2 cluster on loopback,
// warms one spec per benchmark, and measures the warm proxy hop and the
// artifact fetches per cold spec. Every body the cluster returned, from
// every entry node, must equal a single spmt-server node's.
func (h *harness) shardReplay(warm, cold []Spec) (hopUS, fetchesPerCold float64, err error) {
	const size = 3
	urls := make([]string, size)
	ls := make([]net.Listener, size)
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return 0, 0, err
		}
		urls[i] = "http://" + ls[i].Addr().String()
	}
	var cls []*shard.Cluster
	for i := range ls {
		cl, err := shard.New(urls[i], urls, shard.Options{})
		if err != nil {
			return 0, 0, err
		}
		dt, err := engine.OpenDiskTier(filepath.Join(h.dir, fmt.Sprintf("shard%d", i)), 0, codec.New())
		if err != nil {
			return 0, 0, err
		}
		s := sched.New(1)
		repl := shard.NewReplicator(cl, codec.New())
		eng := engine.New(engine.Options{Sched: s, Disk: dt, Remote: shard.NewFetcher(cl, codec.New()), Replicate: repl})
		srv := server.NewCluster(eng, cl)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ls[i])
		defer func() {
			hs.Close()
			srv.Close()
			repl.Close()
			eng.Close()
			s.Close()
		}()
		cls = append(cls, cl)
	}
	ns := make(nodes, size)
	for i, u := range urls {
		ns[i] = &node{URL: u}
	}
	if _, err := h.c.batch(urls[0], warm); err != nil {
		return 0, 0, err
	}
	if err := h.quiesce(ns); err != nil {
		return 0, 0, err
	}
	var owner, other []float64
	got := make(map[string][]byte) // spec key + entry node → body
	for rep := 0; rep < 64; rep++ {
		for _, sp := range warm {
			primary := cls[0].ReplicaSet(expt.SimKey(workload.SizeTest, sp.cfg().spec()))[0]
			for _, u := range urls {
				t := time.Now()
				body, err := h.c.simulate(u, sp)
				if err != nil {
					return 0, 0, err
				}
				if rep == 0 {
					got[sp.Key()+" via "+u] = body
				}
				if u == primary {
					owner = append(owner, ms(t)*1000)
				} else {
					other = append(other, ms(t)*1000)
				}
			}
		}
	}
	f0, err := h.remoteFetches(ns)
	if err != nil {
		return 0, 0, err
	}
	for i, sp := range cold {
		u := urls[i%size]
		body, err := h.c.simulate(u, sp)
		if err != nil {
			return 0, 0, err
		}
		if err := h.chk.SimBody(sp, body); err != nil {
			return 0, 0, err
		}
		got[sp.Key()+" via "+u] = body
	}
	f1, err := h.remoteFetches(ns)
	if err != nil {
		return 0, 0, err
	}
	if err := h.singleNodeParity(append(append([]Spec(nil), warm...), cold...), got); err != nil {
		return 0, 0, err
	}
	return median(other) - median(owner), float64(f1-f0) / float64(len(cold)), nil
}

// singleNodeParity computes specs on a fresh single spmt-server node
// and checks that every cluster body in got (keyed by spec key and
// entry node) equals that node's body for its spec.
func (h *harness) singleNodeParity(specs []Spec, got map[string][]byte) error {
	ref, err := h.boot("reference")
	if err != nil {
		return err
	}
	lines, err := h.c.batch(ref.URL, specs)
	if err != nil {
		return err
	}
	checked := 0
	for i, sp := range specs {
		for what, body := range got {
			if strings.HasPrefix(what, sp.Key()+" via ") {
				if err := BatchLine(lines[i], i, body); err != nil {
					return fmt.Errorf("cluster vs single node: %s: %w", what, err)
				}
				checked++
			}
		}
	}
	if checked != len(got) {
		return fmt.Errorf("cluster vs single node: %d of %d bodies compared", checked, len(got))
	}
	return ref.stop()
}

// quiesce waits until no node has replication pushes pending.
func (h *harness) quiesce(ns nodes) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		pending := int64(0)
		for _, n := range ns {
			st, err := h.shardStats(n.URL)
			if err != nil {
				return err
			}
			pending += st.Replication.Pending
		}
		if pending == 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("replication did not quiesce within 60s")
}

type shardStats struct {
	RemoteFetches uint64 `json:"remote_fetches"`
	Proxied       uint64 `json:"proxied"`
	Replication   struct {
		Pending int64 `json:"pending"`
	} `json:"replication"`
}

func (h *harness) shardStats(base string) (shardStats, error) {
	body, err := h.c.get(base + "/v1/stats?scope=local")
	if err != nil {
		return shardStats{}, err
	}
	var s struct {
		Shard shardStats `json:"shard"`
	}
	return s.Shard, json.Unmarshal(body, &s)
}

func (h *harness) remoteFetches(ns nodes) (uint64, error) {
	var sum uint64
	for _, n := range ns {
		st, err := h.shardStats(n.URL)
		if err != nil {
			return 0, err
		}
		sum += st.RemoteFetches
	}
	return sum, nil
}

// replay is the traced mode: per-layer metrics from direct calls into
// each layer, plus the sweep-cold budget that reconciles them with a
// real node's CPU and its own /v1/stats job totals.
func (h *harness) replay() (result, map[string]any, error) {
	m := map[string]metric{}
	rec := map[string]any{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	gridCfg := newSweepGrid(h.seed)
	grid := gridCfg.specs()

	sw, err := h.serverSweep(gridCfg)
	if err != nil {
		return result{}, rec, fmt.Errorf("server sweep: %w", err)
	}
	for _, k := range []string{"sim", "table", "emu", "reach", "cfg", "heur"} {
		put("engine.job_ms."+k, sw.jobs[k].TotalMS, "ms")
	}

	lc := layerClock{}
	arts, instrs, err := replayPipeline(lc)
	if err != nil {
		return result{}, rec, err
	}
	put("workload.generate_ms", lc.sum("workload"), "ms")
	put("emu.run_ms", lc.sum("emu"), "ms")
	put("emu.minstr_per_s", float64(instrs)/(lc.sum("emu")/1000)/1e6, "Minstr/s")
	put("cfg.prune_ms", median(lc["cfg"]), "ms")
	put("reach.compute_ms", median(lc["reach"]), "ms")
	put("core.select_ms", lc.sum("core"), "ms")
	put("heuristic.pairs_ms", median(lc["heuristic"]), "ms")

	// The sweep's own simulations feed the budget; the workload's feed
	// the cluster.* figures.
	sweepSims, err := h.replaySims(arts, sw.sims, sw.results)
	if err != nil {
		return result{}, rec, err
	}
	sw.results = nil
	sims := sweepSims
	attempted := len(sw.sims)
	if h.workload == "warm-restart" {
		cfgs := h.restartSims()
		if sims, err = h.replaySims(arts, cfgs, nil); err != nil {
			return result{}, rec, err
		}
		attempted += len(cfgs)
	}
	put("cluster.sim_ms", median(sims.perSimMS), "ms")
	put("cluster.sim_minstr_per_s", sims.minstrPerS, "Minstr/s")
	put("cluster.allocs_per_sim", sims.allocsPerSim, "count")
	put("cluster.alloc_mb_per_sim", sims.allocMBPerSim, "MB")
	put("gc.cpu_fraction", sims.gcFraction, "ratio")

	retained, held, err := retainedPerResult(arts)
	if err != nil {
		return result{}, rec, err
	}
	put("cluster.retained_mb_per_result", retained, "MB")
	enc, dec, err := codecRates(arts, held)
	if err != nil {
		return result{}, rec, err
	}
	put("codec.encode_mb_per_s", enc, "MB/s")
	put("codec.decode_mb_per_s", dec, "MB/s")
	held = nil

	// The budget: replayed layer time for the sweep against the node's
	// own job totals and its CPU.
	budget := map[string][2]float64{
		"workload":  {lc.sum("workload"), sw.jobs["program"].TotalMS},
		"emu":       {lc.sum("emu"), sw.jobs["emu"].TotalMS},
		"cfg":       {lc.sum("cfg"), sw.jobs["cfg"].TotalMS},
		"reach":     {lc.sum("reach"), sw.jobs["reach"].TotalMS},
		"core":      {lc.sum("core"), sw.jobs["table"].TotalMS},
		"heuristic": {lc.sum("heuristic"), sw.jobs["heur"].TotalMS},
		"cluster":   {sweepSims.totalMS, sw.jobs["sim"].TotalMS},
	}
	var replayMS, jobMS float64
	for _, v := range budget {
		replayMS += v[0]
		jobMS += v[1]
	}
	put("budget.replay_ms", replayMS, "ms")
	put("budget.server_job_ms", jobMS, "ms")
	put("budget.server_cpu_ms", sw.cpuMS, "ms")
	put("budget.cpu_share", replayMS/sw.cpuMS, "ratio")
	codecMS := float64(sw.bytesW) / mb / enc * 1000
	rec["budget"] = map[string]any{
		"layers_ms_replay_vs_server_jobs": budget,
		"sims":                            len(sw.sims),
		"requests":                        sw.reqs,
		"cpu_ms_per_sim":                  sw.cpuMS / float64(len(sw.sims)),
		"budget_ms_per_sim":               replayMS / float64(len(sw.sims)),
		"remainder_ms":                    sw.cpuMS - replayMS,
		"remainder_codec_ms_est":          codecMS,
		"remainder_gc_ms_est":             sweepSims.gcFraction * sw.cpuMS,
	}
	printBudget(budget, replayMS, jobMS, sw.cpuMS, codecMS, sweepSims.gcFraction)

	hit, handler, err := hitAndHandler()
	if err != nil {
		return result{}, rec, err
	}
	put("engine.hit_us", hit, "us")
	put("server.warm_handler_us", handler, "us")

	warmMS, storeMB, err := h.diskWarm()
	if err != nil {
		return result{}, rec, fmt.Errorf("disk warm: %w", err)
	}
	put("disk.warm_ms", warmMS, "ms")
	put("disk.store_mb", storeMB, "MB")

	// Free the replay's pipelines before the two full sweeps.
	arts = nil
	runtime.GC()
	debug.FreeOSMemory()
	t1, _, closeSched, err := sweepInProcess(1, grid)
	if err != nil {
		return result{}, rec, err
	}
	closeSched()
	runtime.GC()
	debug.FreeOSMemory()
	tn, suite, closeSched, err := sweepInProcess(nproc(), grid)
	if err != nil {
		return result{}, rec, err
	}
	t := time.Now()
	for _, id := range expt.FigureIDs() {
		if _, err := suite.Run(id); err != nil {
			closeSched()
			return result{}, rec, err
		}
	}
	put("expt.figures_warm_ms", ms(t), "ms")
	closeSched()
	suite = nil
	put("sched.sweep_speedup", t1/tn, "x")
	rec["sched_sweep_s"] = map[string]float64{"workers_1": t1, fmt.Sprintf("workers_%d", nproc()): tn}
	runtime.GC()
	debug.FreeOSMemory()

	src := newSpecSource(h.seed)
	var warm []Spec
	for _, b := range workload.Benchmarks {
		warm = append(warm, src.draw(b, pick(src.r, tablePolicies)))
	}
	var cold []Spec
	cr := rand.New(rand.NewSource(h.seed))
	for i := 0; i < 6; i++ {
		cold = append(cold, src.draw(pick(cr, workload.Benchmarks), pick(cr, allPolicies)))
	}
	hop, fetches, err := h.shardReplay(warm, cold)
	if err != nil {
		return result{}, rec, fmt.Errorf("shard: %w", err)
	}
	put("shard.hop_us", hop, "us")
	put("shard.remote_fetches_per_cold", fetches, "count")
	return result{Correct: true, Attempted: attempted, Metrics: m}, rec, nil
}

// printBudget writes the sweep-cold budget table to stderr.
func printBudget(budget map[string][2]float64, replayMS, jobMS, cpuMS, codecMS, gcFrac float64) {
	w := os.Stderr
	fmt.Fprintf(w, "sweep-cold budget (replayed layer time vs the node's /v1/stats job time, ms)\n")
	for _, l := range []string{"workload", "emu", "cfg", "reach", "core", "heuristic", "cluster"} {
		fmt.Fprintf(w, "  %-10s %10.1f %10.1f\n", l, budget[l][0], budget[l][1])
	}
	fmt.Fprintf(w, "  %-10s %10.1f %10.1f\n", "total", replayMS, jobMS)
	fmt.Fprintf(w, "node CPU over the sweep: %.1f ms; replay accounts for %.1f%%\n", cpuMS, 100*replayMS/cpuMS)
	fmt.Fprintf(w, "remainder %.1f ms: codec encode ≈ %.1f ms, GC ≈ %.1f ms (%.1f%% of replay CPU), the rest HTTP, JSON and scheduling\n",
		cpuMS-replayMS, codecMS, gcFrac*cpuMS, 100*gcFrac)
}
