// Degradation suite: proves the overload-safety tentpole end to end.
// Under admission saturation, injected disk faults, injected peer
// faults, cluster deadlines, handler panics, and client disconnects,
// every /v1 response is either byte-identical to the fault-free run or
// a clean, well-formed 429/504 — never a hang, a truncated 200, or a
// leaked goroutine.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/fault"
	"repro/internal/shard"
)

// TestDegradeSaturationParity drives a capacity-1 gate to saturation
// and checks the contract: warm (store-resolvable) requests keep
// succeeding byte-identically, cold computes shed with a well-formed
// 429 + Retry-After, /readyz flips to 503 while the queue is full, and
// everything recovers once capacity frees.
func TestDegradeSaturationParity(t *testing.T) {
	srv := NewWithConfig(engine.New(engine.Options{Workers: 2}), nil, Config{
		AdmitCapacity: 1,
		AdmitQueue:    1,
		AdmitMaxWait:  5 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	// Warm up one simulate while the gate is free; its response is the
	// byte-level reference.
	simBody := `{"bench":"compress","size":"test","tus":4}`
	resp, ref := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, ref)
	}

	// Occupy the whole gate.
	release, err := srv.gate.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Warm traffic bypasses the gate: same request, same bytes, while
	// the gate is fully held.
	resp, warm := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, ref) {
		t.Fatalf("warm request under saturation: status %d, parity %v",
			resp.StatusCode, bytes.Equal(warm, ref))
	}

	// A cold compute queues (filling the single queue slot)...
	queued := make(chan int, 1)
	go func() {
		r2, _ := postJSON(t, ts.URL+"/v1/analyze", `{"bench":"ijpeg","size":"test"}`)
		queued <- r2.StatusCode
	}()
	pollUntil(t, 5*time.Second, func() bool { return srv.gate.Stats().Waiting == 1 })

	// ...so the node is saturated: /readyz says back off...
	if code := getStatus(t, ops.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while saturated = %d, want 503", code)
	}
	// ...and the next cold compute is shed instantly with a clean 429.
	r3, body := postJSON(t, ts.URL+"/v1/analyze", `{"bench":"li","size":"test"}`)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold request on full queue: status %d: %s", r3.StatusCode, body)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 must carry Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body is not the error envelope: %q", body)
	}

	// Release the gate: the queued cold compute admits and completes.
	release()
	select {
	case code := <-queued:
		if code != http.StatusOK {
			t.Errorf("queued request after release: status %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed after release")
	}
	if code := getStatus(t, ops.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", code)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Admit == nil {
		t.Fatal("stats must include the admit section when the gate is on")
	}
	if st.Admit.Bypassed == 0 || st.Admit.RejectedFull == 0 || st.Admit.Admitted == 0 {
		t.Errorf("admit counters: %+v", st.Admit)
	}
}

// blockEngineWorker occupies every scheduler core of eng with jobs
// that park until the returned release func is called. With the core
// budget pinned, any subsequent engine run waits for a core until its
// context expires, making deadline tests deterministic: they never
// race a fast compute against a short timer.
func blockEngineWorker(t *testing.T, eng *engine.Engine, workers int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go func() {
			eng.Exec(context.Background(), engine.Job{
				Run: func(ctx context.Context, deps []any) (any, error) {
					started <- struct{}{}
					<-ch
					return nil, nil
				},
			})
		}()
	}
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("blocker job never started")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestDegradeDeadline504 proves deadline exhaustion is a clean 504 on
// both mint paths: the -default-deadline budget and an adopted
// X-Spmt-Deadline header. The engine's only worker is pinned by a
// parked job, so the deadlined request's compute can never start
// before its budget expires — the scheduler withdraws it from the
// core queue and the handler maps the context error to 504.
func TestDegradeDeadline504(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := NewWithConfig(eng, nil, Config{
		DefaultDeadline: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	release := blockEngineWorker(t, eng, 1)
	defer release()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"bench":"compress","size":"test","tus":4}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("cold compute under a 50ms default deadline with the worker pinned: status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("504 body is not the error envelope: %q", body)
	}

	// Header adoption: no default deadline configured, the forwarded
	// budget alone must cancel the compute.
	eng2 := engine.New(engine.Options{Workers: 1})
	ts2 := httptest.NewServer(New(eng2).Handler())
	t.Cleanup(ts2.Close)
	release2 := blockEngineWorker(t, eng2, 1)
	defer release2()
	req, err := http.NewRequest("POST", ts2.URL+"/v1/analyze",
		strings.NewReader(`{"bench":"compress","size":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(shard.DeadlineHeader, "50")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(r2.Body)
		t.Fatalf("cold compute under a 50ms header deadline with the worker pinned: status %d: %s", r2.StatusCode, b)
	}
}

// TestDegradeDiskFaultParity runs the full parity suite on a server
// whose disk tier suffers seeded read/write/torn-write faults: every
// response must stay byte-identical to the fault-free run (the store
// degrades to recompute, never to wrong bytes).
func TestDegradeDiskFaultParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity suite is slow")
	}
	ref := referenceResponses(t)

	inj := fault.New(7)
	inj.Enable(fault.DiskRead, 0.3, 0)
	inj.Enable(fault.DiskWrite, 0.3, 0)
	inj.Enable(fault.DiskTorn, 0.2, 0)
	disk, err := engine.OpenDiskTier(t.TempDir(), 0, codec.New())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFaults(inj)
	eng := engine.New(engine.Options{Workers: 2, Disk: disk})
	t.Cleanup(eng.Close)
	srv := NewWithConfig(eng, nil, Config{Fault: inj})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Two passes: the first computes under write faults, the second
	// re-reads under read faults.
	for pass := 0; pass < 2; pass++ {
		for _, req := range parityRequests() {
			status, body := doRequest(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("pass %d, %s: status %d: %s", pass, req.name, status, body)
			}
			if !bytes.Equal(body, ref[req.name]) {
				t.Errorf("pass %d, %s: response differs under disk faults", pass, req.name)
			}
		}
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Fault == nil {
		t.Fatal("stats must expose the fault section when an injector is installed")
	}
	var injected uint64
	for _, n := range st.Fault.Injected {
		injected += n
	}
	if injected == 0 {
		t.Error("fault injector never fired — the test proved nothing")
	}
}

// TestDegradePeerFaultParity runs a two-node cluster where node 0's
// entire outbound peer transport fails deterministically: every parity
// request through EITHER entry node must still answer 200
// byte-identical (replica/local fallback), node 0's breaker must open
// and fast-fail instead of re-dialing a dead transport, and the
// breaker fallback must be visible in the stats.
func TestDegradePeerFaultParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node parity suite is slow")
	}
	ref := referenceResponses(t)

	inj := fault.New(42)
	inj.Enable(fault.PeerError, 1, 0)

	switches := make([]*switchHandler, 2)
	nodes := make([]*clusterNode, 2)
	urls := make([]string, 2)
	for i := range nodes {
		switches[i] = &switchHandler{}
		ts := httptest.NewServer(switches[i])
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{ts: ts, url: ts.URL}
		urls[i] = ts.URL
	}
	for i := range nodes {
		opts := shard.Options{}
		var cfg Config
		if i == 0 {
			opts.BreakerFailures = 2
			opts.BreakerCooldown = 10 * time.Second // no half-open during the test
			opts.WrapTransport = inj.Transport
			cfg.Fault = inj
		}
		cl, err := shard.New(urls[i], urls, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{
			Workers: 2,
			Remote:  shard.NewFetcher(cl, codec.New()),
		})
		t.Cleanup(eng.Close)
		nodes[i].srv = NewWithConfig(eng, cl, cfg)
		switches[i].set(nodes[i].srv.Handler())
	}

	for entry, node := range nodes {
		for _, req := range parityRequests() {
			status, body := doRequest(t, node.url, req)
			if status != http.StatusOK {
				t.Fatalf("entry %d, %s: status %d: %s", entry, req.name, status, body)
			}
			if !bytes.Equal(body, ref[req.name]) {
				t.Errorf("entry %d, %s: response differs under peer faults", entry, req.name)
			}
		}
	}

	bs := nodes[0].srv.Cluster().Stats().Breaker
	if bs.Opens == 0 {
		t.Errorf("node 0's breaker never opened: %+v", bs)
	}
	if bs.FastFails == 0 {
		t.Errorf("open breaker never fast-failed a call: %+v", bs)
	}
	st := nodes[0].srv.Cluster().Stats()
	if st.ProxyFallbackReasons[string(shard.FallbackBreaker)]+
		st.ProxyFallbackReasons[string(shard.FallbackTransport)] == 0 {
		t.Errorf("no transport/breaker proxy fallback recorded: %+v", st.ProxyFallbackReasons)
	}
}

// TestDegradePanicRecovery proves the HTTP panic barrier: a panicking
// handler becomes a logged JSON 500 plus a counter bump, and the
// server keeps serving on the same client connection.
func TestDegradePanicRecovery(t *testing.T) {
	srv := New(engine.New(engine.Options{Workers: 1}))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	mux.HandleFunc("GET /v1/ok", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fine") //nolint:errcheck
	})
	ts := httptest.NewServer(srv.observe(mux))
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/panic", `{}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("panic response is not the error envelope: %q", body)
	}
	if got := srv.httpPanics.Load(); got != 1 {
		t.Errorf("httpPanics = %d, want 1", got)
	}
	// The same server (and connection pool) still answers.
	r2, err := http.Get(ts.URL + "/v1/ok")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("request after panic: status %d", r2.StatusCode)
	}

	// The counter reaches /metrics.
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	mresp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mb), "spmt_http_panics_total 1") {
		t.Error("spmt_http_panics_total not exported")
	}
}

// TestDegradeReadyzDraining checks the liveness/readiness split:
// draining flips /readyz to 503 while /healthz stays 200.
func TestDegradeReadyzDraining(t *testing.T) {
	srv, _ := newTestServer(t)
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	if code := getStatus(t, ops.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz at rest = %d", code)
	}
	srv.SetDraining(true)
	if code := getStatus(t, ops.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", code)
	}
	if code := getStatus(t, ops.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200 (liveness != readiness)", code)
	}
	srv.SetDraining(false)
	if code := getStatus(t, ops.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after drain cleared = %d", code)
	}
}

// TestDegradeClientDisconnectMidBatch proves a client hanging up
// mid-stream stops the batch: specs not yet started never run (the
// engine's sim latency count — one observation per executed sim —
// stops growing below the grid size) and the handler's goroutines
// drain.
func TestDegradeClientDisconnectMidBatch(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv := New(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const grid = 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch",
		strings.NewReader(`{"size":"test","sweep":{"benches":["compress"],"tus":[1,2,3,4,5,6,7,8,9,10,11,12]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first NDJSON line: %v", err)
	}
	// Hang up after the first line.
	cancel()
	resp.Body.Close()

	// The sim count must stop growing strictly below the grid size:
	// in-flight sims finish, unstarted ones are never run.
	simCount := func() uint64 { return eng.Stats().Latency["sim"].Count }
	var last uint64
	stable := 0
	pollUntil(t, 30*time.Second, func() bool {
		cur := simCount()
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
		return stable >= 5 // ~500ms without a new sim completing
	})
	if got := simCount(); got >= grid {
		t.Errorf("all %d sims ran despite mid-stream disconnect (count=%d)", grid, got)
	}

	// No leaked goroutines: the handler, SimEach, and slot channels all
	// unwind back to (about) the pre-request baseline.
	http.DefaultClient.CloseIdleConnections()
	pollUntil(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
	if n := runtime.NumGoroutine(); n > baseline+3 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}

// waitFor polls cond every 100ms until it holds or the deadline
// passes (then fails the test).
func pollUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}

// getStatus GETs a URL and returns just the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}
