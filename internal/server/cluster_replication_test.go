package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/linalg"
	"repro/internal/shard"
)

// waitFor polls cond until it holds. Cluster tests observe membership
// epochs, ring versions, and replication gauges instead of sleeping
// fixed amounts — the stats exist for exactly this.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startReplicatedNode builds one in-process shard with the full R=2
// write path wired: fetcher, write-through replicator, and the server's
// re-replication sweeper. sw must already be serving (the node's URL
// exists before the node does).
func startReplicatedNode(t *testing.T, sw *switchHandler, ts *httptest.Server, members []string) *clusterNode {
	t.Helper()
	cl, err := shard.New(ts.URL, members, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := engine.OpenDiskTier(t.TempDir(), 0, codec.New())
	if err != nil {
		t.Fatal(err)
	}
	repl := shard.NewReplicator(cl, codec.New())
	eng := engine.New(engine.Options{
		Workers:   2,
		Disk:      disk,
		Remote:    shard.NewFetcher(cl, codec.New()),
		Replicate: repl,
	})
	t.Cleanup(eng.Close)
	t.Cleanup(repl.Close)
	node := &clusterNode{srv: NewCluster(eng, cl), ts: ts, url: ts.URL}
	t.Cleanup(node.srv.Close)
	sw.set(node.srv.Handler())
	return node
}

// startReplicatedCluster is startTestCluster plus the R=2 write path.
// No prober runs: suspicion is exercised in internal/shard, and the
// degraded tests here want the dead member to stay in the ring so the
// retry/fallback paths are what absorbs the fault.
func startReplicatedCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	switches := make([]*switchHandler, n)
	servers := make([]*httptest.Server, n)
	for i := range nodes {
		switches[i] = &switchHandler{}
		servers[i] = httptest.NewServer(switches[i])
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	for i := range nodes {
		nodes[i] = startReplicatedNode(t, switches[i], servers[i], urls)
	}
	return nodes
}

// replQuiesced reports whether every node's write-through queue has
// fully drained.
func replQuiesced(nodes []*clusterNode) bool {
	for _, n := range nodes {
		if n.srv.Cluster().Stats().Replication.Pending != 0 {
			return false
		}
	}
	return true
}

// pipelineRuns sums the executed-job counts of the pipeline kinds
// replication must keep warm — the recompute meter of the fault test.
func pipelineRuns(n *clusterNode) uint64 {
	lat := n.srv.Engine().Stats().Latency
	var total uint64
	for _, kind := range []string{"emu", "reach", "table", "sim"} {
		total += lat[kind].Count
	}
	return total
}

// TestReplicatedFaultAbsorption is the R=2 acceptance test: after a
// warm pass and write-through quiescence, killing one member costs the
// survivors NO pipeline recompute — every artifact the dead node owned
// has a live replica — while every response stays byte-identical to a
// single-node run.
func TestReplicatedFaultAbsorption(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated fault suite is slow")
	}
	ref := referenceResponses(t)
	nodes := startReplicatedCluster(t, 3)

	for _, req := range parityRequests() {
		status, body := doRequest(t, nodes[0].url, req)
		if status != http.StatusOK {
			t.Fatalf("warm %s: status %d: %s", req.name, status, body)
		}
		if !bytes.Equal(body, ref[req.name]) {
			t.Fatalf("warm %s: bytes differ from single-node run", req.name)
		}
	}

	// Write-through must quiesce before the fault: pending 0 with no
	// drops or errors means every computed artifact reached its replica.
	waitFor(t, "write-through to quiesce", func() bool { return replQuiesced(nodes) })
	for i, n := range nodes {
		r := n.srv.Cluster().Stats().Replication
		if r.Dropped != 0 || r.PushErrors != 0 {
			t.Fatalf("node %d: dropped=%d push_errors=%d before the fault", i, r.Dropped, r.PushErrors)
		}
	}

	nodes[2].ts.Close()
	before := []uint64{pipelineRuns(nodes[0]), pipelineRuns(nodes[1])}

	for entry, node := range nodes[:2] {
		for _, req := range parityRequests() {
			status, body := doRequest(t, node.url, req)
			if status != http.StatusOK {
				t.Fatalf("degraded entry %d, %s: status %d: %s", entry, req.name, status, body)
			}
			if !bytes.Equal(body, ref[req.name]) {
				t.Errorf("degraded entry %d, %s: response differs from single-node run\n got: %.300s\nwant: %.300s",
					entry, req.name, body, ref[req.name])
			}
		}
	}

	for i, n := range nodes[:2] {
		if got := pipelineRuns(n); got != before[i] {
			t.Errorf("node %d ran %d pipeline jobs while degraded; R=2 must serve all of them warm",
				i, got-before[i])
		}
	}
}

// TestJoinAndReReplication drives the elastic path end to end: a fresh
// node with a single-member view joins through a seed, gossip converges
// every membership, the membership change triggers re-replication
// sweeps on the seeds, and the sweeps restore R=2 — every disk-resident
// key ends up resident on every member of its owner set, including the
// arc that moved to the joiner.
func TestJoinAndReReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("join/re-replication suite is slow")
	}
	nodes := startReplicatedCluster(t, 2)

	for _, req := range []clusterRequest{
		{"sim", "POST", "/v1/simulate", `{"bench":"compress","size":"test","policy":"profile","tus":16}`},
		{"pairs", "POST", "/v1/pairs", `{"bench":"ijpeg","size":"test","policy":"profile"}`},
	} {
		if status, body := doRequest(t, nodes[0].url, req); status != http.StatusOK {
			t.Fatalf("warm-up %s: status %d: %s", req.name, status, body)
		}
	}
	waitFor(t, "write-through to quiesce", func() bool { return replQuiesced(nodes) })
	for _, n := range nodes {
		n.srv.Engine().Disk().Flush() // the sweep scans the disk index
	}

	// Boot the joiner knowing only itself, then join through node 0.
	sw := &switchHandler{}
	ts := httptest.NewServer(sw)
	t.Cleanup(ts.Close)
	joiner := startReplicatedNode(t, sw, ts, []string{ts.URL})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ms, err := joiner.srv.Cluster().JoinVia(ctx, nodes[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Members) != 3 || !slices.Contains(ms.Members, joiner.url) {
		t.Fatalf("join answered %+v", ms)
	}

	all := append(slices.Clone(nodes), joiner)
	waitFor(t, "membership convergence", func() bool {
		for _, n := range all {
			m := n.srv.Cluster().Membership()
			if m.Epoch != ms.Epoch || len(m.Members) != 3 {
				return false
			}
		}
		return true
	})

	byURL := make(map[string]*clusterNode, len(all))
	for _, n := range all {
		byURL[n.url] = n
	}
	waitFor(t, "re-replication convergence", func() bool {
		for _, n := range nodes { // the seeds hold the pre-join artifacts
			st := n.srv.Cluster().Stats().Replication
			if st.LastSweepEpoch != ms.Epoch || st.Pending != 0 {
				return false
			}
		}
		for _, n := range all {
			for _, key := range n.srv.Engine().Disk().Keys() {
				for _, owner := range n.srv.Cluster().ReplicaSet(key) {
					if o := byURL[owner]; o != nil && !o.srv.Engine().Has(key) {
						return false
					}
				}
			}
		}
		return true
	})

	// The joiner's arc covers ~1/3 of a multi-key warm set; if any key
	// maps to it, the sweep must have pushed real data its way.
	moved := false
	cl0 := nodes[0].srv.Cluster()
	for _, n := range nodes {
		for _, key := range n.srv.Engine().Disk().Keys() {
			if slices.Contains(cl0.ReplicaSet(key), joiner.url) {
				moved = true
			}
		}
	}
	if moved && joiner.srv.Cluster().Stats().Replication.Received == 0 {
		t.Error("keys map to the joiner but it received no pushed artifact")
	}
}

// TestClusterControlEndpoints drives the membership control plane over
// HTTP: join and leave mutate the epoch, gossip carries the change to
// the other member, and the health document fingerprints the view.
func TestClusterControlEndpoints(t *testing.T) {
	nodes := startTestCluster(t, 2)

	var ms shard.Membership
	if resp := getJSON(t, nodes[0].url+"/v1/cluster/membership", &ms); resp.StatusCode != http.StatusOK {
		t.Fatalf("membership status = %d", resp.StatusCode)
	}
	if ms.Epoch != 1 || len(ms.Members) != 2 {
		t.Fatalf("boot membership = %+v", ms)
	}

	// Admit a phantom third member (never actually serving — gossip to
	// it fails harmlessly; the live peer must still converge).
	phantom := "http://127.0.0.1:9"
	resp, body := postJSON(t, nodes[0].url+"/v1/cluster/join", `{"node":"`+phantom+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status = %d: %s", resp.StatusCode, body)
	}
	if err := decodeBody(body, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Epoch != 2 || !slices.Contains(ms.Members, phantom) {
		t.Fatalf("post-join view = %+v", ms)
	}
	waitFor(t, "join gossip", func() bool { return nodes[1].srv.Cluster().Epoch() == 2 })

	// Idempotent re-join must not move the epoch.
	resp, body = postJSON(t, nodes[0].url+"/v1/cluster/join", `{"node":"`+phantom+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-join status = %d", resp.StatusCode)
	}
	if err := decodeBody(body, &ms); err != nil || ms.Epoch != 2 {
		t.Fatalf("re-join view = %+v (err %v)", ms, err)
	}

	resp, body = postJSON(t, nodes[0].url+"/v1/cluster/leave", `{"node":"`+phantom+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave status = %d: %s", resp.StatusCode, body)
	}
	if err := decodeBody(body, &ms); err != nil || ms.Epoch != 3 || len(ms.Members) != 2 {
		t.Fatalf("post-leave view = %+v (err %v)", ms, err)
	}
	waitFor(t, "leave gossip", func() bool { return nodes[1].srv.Cluster().Epoch() == 3 })

	var doc shard.HealthDoc
	if resp := getJSON(t, nodes[0].url+"/v1/cluster/health", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	if !doc.OK || doc.Epoch != 3 || doc.Node != nodes[0].url || doc.Hash == "" {
		t.Errorf("health doc = %+v", doc)
	}

	if resp, _ := postJSON(t, nodes[0].url+"/v1/cluster/join", `{"node":"ftp://nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed join node: status = %d, want 400", resp.StatusCode)
	}
}

// TestClusterEndpointsStandalone: a node not in peer mode answers the
// control plane with 503, never a panic or a silent no-op.
func TestClusterEndpointsStandalone(t *testing.T) {
	_, ts := newTestServer(t)
	for _, p := range []string{"/v1/cluster/join", "/v1/cluster/leave", "/v1/cluster/membership"} {
		if resp, _ := postJSON(t, ts.URL+p, `{"node":"http://a:1"}`); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s: status = %d, want 503", p, resp.StatusCode)
		}
	}
	for _, p := range []string{"/v1/cluster/membership", "/v1/cluster/health"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s: status = %d, want 503", p, resp.StatusCode)
		}
	}
}

// TestArtifactPushAndCheck drives the replication transport endpoints:
// PUT stores an image once (duplicates dedupe), and the check probe
// answers residency without a payload.
func TestArtifactPushAndCheck(t *testing.T) {
	nodes := startTestCluster(t, 2)
	cl := nodes[0].srv.Cluster()
	ctx := context.Background()
	const key = "reach/pushed/1"

	if has, err := cl.CheckArtifact(ctx, nodes[1].url, key); err != nil || has {
		t.Fatalf("pre-push check: has=%v err=%v", has, err)
	}

	cod := codec.New()
	want := &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2.5}}
	kind, img, ok, err := cod.Encode(want)
	if err != nil || !ok {
		t.Fatalf("encode fixture: ok=%v err=%v", ok, err)
	}
	if stored, err := cl.PushArtifact(ctx, nodes[1].url, key, kind, img); err != nil || !stored {
		t.Fatalf("first push: stored=%v err=%v", stored, err)
	}
	if stored, err := cl.PushArtifact(ctx, nodes[1].url, key, kind, img); err != nil || stored {
		t.Fatalf("duplicate push: stored=%v err=%v (want dedupe)", stored, err)
	}
	if has, err := cl.CheckArtifact(ctx, nodes[1].url, key); err != nil || !has {
		t.Fatalf("post-push check: has=%v err=%v", has, err)
	}
	if v, ok := nodes[1].srv.Engine().Peek(key); !ok {
		t.Error("pushed artifact not resident on the receiver")
	} else if got, isMat := v.(*linalg.Matrix); !isMat || got.Data[1] != 2.5 {
		t.Errorf("pushed artifact decoded to %#v", v)
	}
	st := nodes[1].srv.Cluster().Stats().Replication
	if st.Received != 1 || st.ReceivedDuplicate != 1 {
		t.Errorf("receiver counters: received=%d duplicate=%d, want 1/1", st.Received, st.ReceivedDuplicate)
	}

	// A push without a kind header is a 400, surfaced as an error.
	if _, err := cl.PushArtifact(ctx, nodes[1].url, "reach/pushed/2", "", img); err == nil {
		t.Error("kindless push must fail")
	}
}

// stallWrites is a disk fault injector that parks the tier's background
// writer inside the write of one key until released, so the keys queued
// behind it stay pending for as long as a test needs.
type stallWrites struct {
	key     string
	entered chan struct{}
	release chan struct{}
}

func (f *stallWrites) ReadError(string) error { return nil }

func (f *stallWrites) WriteError(key string) error {
	if key == f.key {
		close(f.entered)
		<-f.release
	}
	return nil
}

func (f *stallWrites) MangleImage(_ string, img []byte) []byte { return img }

// TestSweepRepairsQueuedKey: a re-replication sweep must push a key
// whose artifact is still in the disk tier's async-write queue — the
// state a key is in when its write-through push is shed right after
// the computation. The writer is parked on a fault hook, so the key is
// deterministically queued, not yet written, while the sweep runs.
func TestSweepRepairsQueuedKey(t *testing.T) {
	nodes := startReplicatedCluster(t, 2)
	disk := nodes[0].srv.Engine().Disk()
	stall := &stallWrites{key: "reach/stall", entered: make(chan struct{}), release: make(chan struct{})}
	disk.SetFaults(stall)
	t.Cleanup(func() { close(stall.release) }) // before the engine drains its disk tier

	disk.PutAsync(stall.key, &linalg.Matrix{Rows: 1, Cols: 1, Data: []float64{1}})
	<-stall.entered
	const key = "reach/queued"
	disk.PutAsync(key, &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2.5}})
	if disk.Has(key) || !disk.HasOrPending(key) {
		t.Fatal("the key is not queued behind the stalled write")
	}
	if nodes[1].srv.Engine().Has(key) {
		t.Fatal("the peer holds the key before any sweep")
	}

	nodes[0].srv.runSweep()
	for _, k := range []string{stall.key, key} {
		if !nodes[1].srv.Engine().Has(k) {
			t.Errorf("sweep left queued key %q at R=1", k)
		}
	}
}

// TestSweepCountsSkippedPush: a re-replication sweep over a key its
// replica owner already holds pushes nothing, counts the skip, and
// /metrics exports the count.
func TestSweepCountsSkippedPush(t *testing.T) {
	nodes := startReplicatedCluster(t, 2)
	const key = "reach/resident"
	for _, n := range nodes {
		disk := n.srv.Engine().Disk()
		disk.PutAsync(key, &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2.5}})
		disk.Flush()
	}

	nodes[0].srv.runSweep()
	st := nodes[0].srv.Cluster().Stats().Replication
	if st.PushSkipped == 0 || st.SweepPushed != 0 {
		t.Fatalf("sweep over a resident key: push_skipped=%d sweep_pushed=%d, want >0 and 0", st.PushSkipped, st.SweepPushed)
	}
	series := parseExposition(t, scrapeMetrics(t, nodes[0].url))
	if got := series["spmt_shard_replication_push_skipped_total"]; got != float64(st.PushSkipped) {
		t.Errorf("spmt_shard_replication_push_skipped_total = %g, /v1/stats says %d", got, st.PushSkipped)
	}
}
