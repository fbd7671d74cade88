package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/codec"
)

// diskServer builds a server whose engine persists artifacts under
// dir, warming the memory tier from whatever a previous instance left
// there — the -store-dir wiring of cmd/spmt-server.
func diskServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	dt, err := engine.OpenDiskTier(dir, 0, codec.New())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, Disk: dt})
	// Registered before ts.Close so it runs after it: the listener
	// stops first, then the async writer drains before dir is removed.
	t.Cleanup(eng.Close)
	eng.WarmFromDisk()
	srv := New(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestColdStartServesFromDiskStore is the PR's acceptance test: a
// server restarted on a warm store directory answers a previously-seen
// /v1/simulate and a previously-seen /v1/batch grid without executing
// a single emulation (or simulation) job, and the answers are
// byte-identical to the first run's.
func TestColdStartServesFromDiskStore(t *testing.T) {
	dir := t.TempDir()
	simBody := `{"bench":"compress","size":"test","policy":"profile","tus":16}`
	batchBody := `{"size":"test","sweep":{"benches":["compress"],"policies":["none","profile"],"tus":[1,8]}}`

	// First life: compute everything, persisting via write-through.
	srv1, ts1 := diskServer(t, dir)
	resp, simFirst := postJSON(t, ts1.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", resp.StatusCode, simFirst)
	}
	bresp, batchFirst := postJSON(t, ts1.URL+"/v1/batch", batchBody)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", bresp.StatusCode)
	}
	// Shut the first life down the way the server binary does: Close
	// drains the async write-through queue, so everything the run
	// computed is durable before the "restart".
	srv1.Engine().Close()
	firstStats := srv1.Engine().Stats()
	if firstStats.Latency["emu"].Count == 0 {
		t.Fatal("first run executed no emulation jobs; test is vacuous")
	}
	if firstStats.Disk == nil || firstStats.Disk.Writes == 0 {
		t.Fatalf("first run wrote nothing to disk: %+v", firstStats.Disk)
	}
	if firstStats.Disk.AsyncWrites == 0 {
		t.Fatalf("write-through did not go through the async queue: %+v", firstStats.Disk)
	}
	if firstStats.Disk.QueueDepth != 0 {
		t.Fatalf("Close left %d writes queued", firstStats.Disk.QueueDepth)
	}
	ts1.Close()

	// Second life: a fresh process over the same directory.
	srv2, ts2 := diskServer(t, dir)
	resp2, simSecond := postJSON(t, ts2.URL+"/v1/simulate", simBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted simulate status = %d: %s", resp2.StatusCode, simSecond)
	}
	if string(simFirst) != string(simSecond) {
		t.Errorf("simulate response changed across restart:\n%s\nvs\n%s", simFirst, simSecond)
	}
	bresp2, batchSecond := postJSON(t, ts2.URL+"/v1/batch", batchBody)
	if bresp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted batch status = %d", bresp2.StatusCode)
	}
	if string(batchFirst) != string(batchSecond) {
		t.Errorf("batch NDJSON changed across restart:\n%s\nvs\n%s", batchFirst, batchSecond)
	}

	// A table that was never built in the first life: core.Select now
	// runs over the disk-promoted graph and reach artifacts (decoded
	// copies, not the original pointers) and must accept them.
	presp, pbody := postJSON(t, ts2.URL+"/v1/pairs",
		`{"bench":"compress","size":"test","policy":"profile-indep"}`)
	if presp.StatusCode != http.StatusOK {
		t.Errorf("fresh table over promoted artifacts: status %d: %s", presp.StatusCode, pbody)
	}

	st := srv2.Engine().Stats()
	// The heavy pipeline stages never re-ran: the store answered them.
	// ("table" is exempt above via a deliberately fresh policy, so only
	// previously-seen kinds are asserted zero.)
	for _, kind := range []string{"emu", "program", "cfg", "reach", "sim", "heur"} {
		if n := st.Latency[kind].Count; n != 0 {
			t.Errorf("restarted server executed %d %q jobs, want 0", n, kind)
		}
	}
	if st.Cache.Hits == 0 {
		t.Error("restarted server recorded no store hits")
	}
	if st.Disk == nil {
		t.Fatal("restarted server reports no disk tier in stats")
	}
	if st.Disk.Hits == 0 {
		t.Error("warm boot read nothing from disk")
	}
}

// TestStatsExposesDiskTier: /v1/stats carries per-tier counters when a
// disk tier is configured, and omits the disk block when memory-only.
func TestStatsExposesDiskTier(t *testing.T) {
	_, tsMem := newTestServer(t)
	var memStats statsResponse
	getJSON(t, tsMem.URL+"/v1/stats", &memStats)
	if memStats.Engine.Disk != nil {
		t.Error("memory-only engine must not report a disk tier")
	}

	srvDisk, tsDisk := diskServer(t, t.TempDir())
	resp, _ := postJSON(t, tsDisk.URL+"/v1/simulate",
		`{"bench":"compress","size":"test","policy":"none","tus":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("simulate failed")
	}
	// Writes are asynchronous now; drain before asserting counters.
	srvDisk.Engine().Disk().Flush()
	var st statsResponse
	getJSON(t, tsDisk.URL+"/v1/stats", &st)
	if st.Engine.Disk == nil {
		t.Fatal("disk tier missing from /v1/stats")
	}
	if st.Engine.Disk.Writes == 0 || st.Engine.Disk.Entries == 0 || st.Engine.Disk.BytesResident == 0 {
		t.Errorf("disk tier stats look empty: %+v", st.Engine.Disk)
	}
	if st.Engine.Disk.AsyncWrites == 0 || st.Engine.Disk.Flushes == 0 {
		t.Errorf("async writer counters missing from /v1/stats: %+v", st.Engine.Disk)
	}
	if st.Engine.Disk.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after flush, want 0", st.Engine.Disk.QueueDepth)
	}
}
