package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds. Timing-sensitive membership tests
// observe epochs, suspect lists, and ring versions instead of sleeping
// fixed amounts — the counters exist for exactly this.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMembershipOrdering(t *testing.T) {
	old := Membership{Epoch: 2, Members: []string{"http://a:1"}}
	grown := Membership{Epoch: 3, Members: []string{"http://a:1", "http://b:2"}}
	if !grown.newerThan(old) || old.newerThan(grown) {
		t.Error("a higher epoch must win regardless of member count")
	}
	if old.newerThan(old) {
		t.Error("a view must not be newer than itself")
	}
	// Same epoch, different members: exactly one side wins, and both
	// sides agree on which (the hash tie-break every node computes).
	left := Membership{Epoch: 5, Members: []string{"http://a:1", "http://b:2"}}
	right := Membership{Epoch: 5, Members: []string{"http://a:1", "http://c:3"}}
	if left.newerThan(right) == right.newerThan(left) {
		t.Error("same-epoch conflict must have a deterministic winner")
	}
	if left.Hash() == right.Hash() {
		t.Error("differing member sets must fingerprint differently")
	}
}

func TestMembershipMutations(t *testing.T) {
	cl, err := New("http://a:1", []string{"http://a:1", "http://b:2"}, Options{VNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Epoch() != 1 {
		t.Fatalf("boot epoch = %d, want 1", cl.Epoch())
	}
	rv := cl.RingVersion()

	ms, changed, err := cl.AddMember("http://c:3/")
	if err != nil || !changed {
		t.Fatalf("AddMember: changed=%v err=%v", changed, err)
	}
	if ms.Epoch != 2 || len(ms.Members) != 3 {
		t.Fatalf("post-join view = %+v", ms)
	}
	if cl.RingVersion() == rv {
		t.Error("a membership change must bump the ring version")
	}
	if _, changed, _ := cl.AddMember("http://c:3"); changed {
		t.Error("re-adding a member must be an idempotent no-op")
	}
	if cl.Epoch() != 2 {
		t.Errorf("idempotent re-add moved the epoch to %d", cl.Epoch())
	}

	ms, changed, err = cl.RemoveMember("http://c:3")
	if err != nil || !changed || ms.Epoch != 3 || len(ms.Members) != 2 {
		t.Fatalf("RemoveMember: view=%+v changed=%v err=%v", ms, changed, err)
	}
	if _, changed, _ := cl.RemoveMember("http://c:3"); changed {
		t.Error("removing an absent member must be a no-op")
	}

	// Stale and equal views are rejected; newer ones adopted.
	if cl.AdoptMembership(Membership{Epoch: 1, Members: []string{"http://z:9"}}, false) {
		t.Error("a stale view must not be adopted")
	}
	if !cl.AdoptMembership(Membership{Epoch: 9, Members: []string{"http://a:1", "http://b:2", "http://d:4"}}, false) {
		t.Error("a newer view must be adopted")
	}
	if cl.Epoch() != 9 || len(cl.Members()) != 3 {
		t.Errorf("adopted view: epoch=%d members=%v", cl.Epoch(), cl.Members())
	}
	// Force-adopt (the join path) wins even against a higher local
	// epoch — the seed's answer is authoritative by construction.
	if !cl.AdoptMembership(Membership{Epoch: 4, Members: []string{"http://a:1", "http://b:2"}}, true) {
		t.Error("force-adopt must install the view unconditionally")
	}
	if cl.Epoch() != 4 {
		t.Errorf("force-adopted epoch = %d, want 4", cl.Epoch())
	}

	// Removing self degrades to a standalone single-member view rather
	// than routing every request away from the only node left.
	if _, changed, _ = cl.RemoveMember("http://a:1"); !changed {
		t.Fatal("removing self must change the view")
	}
	if got := cl.Members(); len(got) != 1 || got[0] != "http://a:1" {
		t.Errorf("post-self-removal members = %v, want just self", got)
	}
}

func TestSuspicionReroutesOwnership(t *testing.T) {
	nodes := nodeList(3)
	cl, err := New(nodes[0], nodes, Options{VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for _, k := range testKeys(2000) {
		if cl.Owner(k) == nodes[1] {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by the suspect-to-be")
	}

	rv := cl.RingVersion()
	if !cl.Suspect(nodes[1]) {
		t.Fatal("Suspect must report a new suspicion")
	}
	if cl.Suspect(nodes[1]) {
		t.Error("re-suspecting must be a no-op")
	}
	if cl.Suspect(nodes[0]) {
		t.Error("self must never be suspectable")
	}
	if cl.RingVersion() == rv {
		t.Error("suspicion must bump the ring version")
	}
	if cl.Epoch() != 1 {
		t.Error("suspicion is local and temporary: the epoch must not move")
	}
	if got := cl.Suspects(); !slices.Equal(got, []string{nodes[1]}) {
		t.Errorf("suspects = %v", got)
	}
	if cl.Owner(key) == nodes[1] {
		t.Error("a suspected member must leave the effective ring")
	}
	if slices.Contains(cl.ReplicaSet(key), nodes[1]) {
		t.Error("replica placement must skip suspected members")
	}
	if got := len(cl.Members()); got != 3 {
		t.Errorf("full membership shrank to %d under suspicion", got)
	}

	// Suspecting every peer must never exclude self: a fully-isolated
	// node answers by local compute.
	cl.Suspect(nodes[2])
	for _, k := range testKeys(50) {
		if cl.Owner(k) != nodes[0] {
			t.Fatalf("isolated node does not own %q", k)
		}
	}

	if !cl.Readmit(nodes[1]) {
		t.Fatal("Readmit must report recovery of a suspect")
	}
	if cl.Readmit(nodes[1]) {
		t.Error("readmitting a healthy member must be a no-op")
	}
	cl.Readmit(nodes[2])
	if cl.Owner(key) != nodes[1] {
		t.Error("readmission must restore the original ownership")
	}
	st := cl.Stats()
	if st.Suspicions != 2 || st.Readmissions != 2 {
		t.Errorf("suspicions/readmissions = %d/%d, want 2/2", st.Suspicions, st.Readmissions)
	}
}

// TestReplicaSetWithoutProperty is the replica-placement contract under
// member loss: because removing a member deletes exactly its points
// from the ring's distinct-owner sequence, a key's surviving R=2 set
// keeps every surviving member in order and gains at most the old
// third-distinct node — so the replica the degraded read path retries
// is always a node the write-through path had already targeted.
func TestReplicaSetWithoutProperty(t *testing.T) {
	keys := testKeys(4000)
	for _, n := range []int{3, 4, 5, 8} {
		nodes := nodeList(n)
		ring := NewRing(nodes, 0)
		for _, gone := range []string{nodes[0], nodes[n/2], nodes[n-1]} {
			after := ring.Without(gone)
			for _, k := range keys {
				old3 := ring.OwnersN(k, 3)
				old2 := old3[:2]
				new2 := after.OwnersN(k, 2)
				if old2[0] != ring.Owner(k) {
					t.Fatalf("n=%d: OwnersN[0] disagrees with Owner for %q", n, k)
				}
				if !slices.Contains(old2, gone) {
					if !slices.Equal(new2, old2) {
						t.Fatalf("n=%d: %q not owned by removed %s but set moved %v -> %v",
							n, k, gone, old2, new2)
					}
					continue
				}
				want := make([]string, 0, 2)
				for _, m := range old3 {
					if m != gone {
						want = append(want, m)
					}
				}
				if !slices.Equal(new2, want) {
					t.Fatalf("n=%d: removing %s from %v must yield %v, got %v",
						n, gone, old3, want, new2)
				}
			}
		}
	}
}

// proberPeer serves the control-plane endpoints one real peer would,
// answering from the view the observing cluster currently holds (so the
// prober sees no membership drift) — unless down, in which case every
// request 500s.
func proberPeer(t *testing.T, clRef *atomic.Pointer[Cluster], down *atomic.Bool, view func() Membership) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cl := clRef.Load()
		if cl == nil || down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		ms := view()
		switch r.URL.Path {
		case healthPath:
			json.NewEncoder(w).Encode(HealthDoc{OK: true, Node: "peer", Epoch: ms.Epoch, Hash: ms.Hash()})
		case membershipPath:
			json.NewEncoder(w).Encode(ms)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestProberSuspectsAndReadmits(t *testing.T) {
	var clRef atomic.Pointer[Cluster]
	var down atomic.Bool
	peer := proberPeer(t, &clRef, &down, func() Membership { return clRef.Load().Membership() })

	self := "http://127.0.0.1:1"
	cl, err := New(self, []string{self, peer.URL}, Options{VNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	clRef.Store(cl)
	p := StartProber(cl, ProberOptions{Interval: 5 * time.Millisecond, Timeout: 500 * time.Millisecond, Failures: 2})
	defer p.Close()

	waitFor(t, "probe rounds", func() bool { return cl.Stats().Probes >= 3 })
	if len(cl.Suspects()) != 0 {
		t.Fatal("a healthy peer must not be suspected")
	}

	down.Store(true)
	waitFor(t, "suspicion after K failures", func() bool {
		return slices.Contains(cl.Suspects(), peer.URL)
	})
	if cl.Epoch() != 1 {
		t.Error("probe-driven suspicion must not move the membership epoch")
	}

	down.Store(false)
	waitFor(t, "readmission on recovery", func() bool { return len(cl.Suspects()) == 0 })
	st := cl.Stats()
	if st.Suspicions < 1 || st.Readmissions < 1 || st.ProbeFailures < 2 {
		t.Errorf("prober counters: suspicions=%d readmissions=%d failures=%d",
			st.Suspicions, st.Readmissions, st.ProbeFailures)
	}
}

func TestProberAntiEntropy(t *testing.T) {
	var clRef atomic.Pointer[Cluster]
	var down atomic.Bool
	self := "http://127.0.0.1:1"
	third := "http://127.0.0.1:9"
	var ahead atomic.Bool
	peer := proberPeer(t, &clRef, &down, func() Membership {
		cl := clRef.Load()
		if !ahead.Load() {
			return cl.Membership()
		}
		// The peer has seen a join this node's gossip missed.
		return Membership{Epoch: 7, Members: []string{self, clRef.Load().Members()[1], third}}
	})

	cl, err := New(self, []string{self, peer.URL}, Options{VNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	clRef.Store(cl)
	p := StartProber(cl, ProberOptions{Interval: 5 * time.Millisecond, Timeout: 500 * time.Millisecond, Failures: 3})
	defer p.Close()

	waitFor(t, "baseline probes", func() bool { return cl.Stats().Probes >= 2 })
	ahead.Store(true)
	// One probe sees the epoch mismatch and pulls the newer view.
	waitFor(t, "anti-entropy adoption", func() bool {
		return cl.Epoch() == 7 && slices.Contains(cl.Members(), third)
	})
}

func TestTransientStatusAndOwnerWalk(t *testing.T) {
	for code, want := range map[int]bool{200: false, 404: false, 499: false, 500: true, 503: true} {
		if TransientStatus(code) != want {
			t.Errorf("TransientStatus(%d) = %v, want %v", code, !want, want)
		}
	}

	// Four members at R=4: every key has three non-self owners, and
	// the walk must still attempt at most two of them, in ring order.
	self := "http://a:1"
	members := []string{self, "http://b:1", "http://c:1", "http://d:1"}
	cl, err := New(self, members, Options{VNodes: 4, Replicas: 4, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const key = "sim/x"
	var want []string
	for _, n := range cl.ReplicaSet(key) {
		if n != self {
			want = append(want, n)
		}
	}
	if len(want) != 3 {
		t.Fatalf("non-self owners = %v, want 3", want)
	}
	walk := func(ctx context.Context, answer func(i int) bool) ([]string, bool) {
		var got []string
		ok := cl.WalkOwners(ctx, key, func(peer string) bool {
			got = append(got, peer)
			return answer(len(got) - 1)
		})
		return got, ok
	}
	retries := func() (uint64, uint64) {
		st := cl.Stats()
		return st.PeerRetries, st.PeerRetrySuccesses
	}

	if got, ok := walk(context.Background(), func(int) bool { return true }); !ok || !slices.Equal(got, want[:1]) {
		t.Errorf("healthy primary: attempts %v ok=%v, want %v true", got, ok, want[:1])
	}
	if r, h := retries(); r != 0 || h != 0 {
		t.Errorf("a first-attempt answer counted retries %d/%d", r, h)
	}

	start := time.Now()
	if got, ok := walk(context.Background(), func(int) bool { return false }); ok || !slices.Equal(got, want[:2]) {
		t.Errorf("failing owners: attempts %v ok=%v, want %v false", got, ok, want[:2])
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("backoff slept %v, want at least base/2", d)
	}
	if r, h := retries(); r != 1 || h != 0 {
		t.Errorf("failed retry counted %d/%d, want 1/0", r, h)
	}

	if got, ok := walk(context.Background(), func(i int) bool { return i == 1 }); !ok || !slices.Equal(got, want[:2]) {
		t.Errorf("replica answer: attempts %v ok=%v, want %v true", got, ok, want[:2])
	}
	if r, h := retries(); r != 2 || h != 1 {
		t.Errorf("answered retry counted %d/%d, want 2/1", r, h)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, ok := walk(ctx, func(int) bool { return false }); ok || len(got) != 1 {
		t.Errorf("cancelled context: attempts %v ok=%v, want the primary only", got, ok)
	}
	if r, _ := retries(); r != 2 {
		t.Errorf("a cancelled backoff counted a retry (%d)", r)
	}

	solo, err := New(self, []string{self}, Options{VNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if solo.WalkOwners(context.Background(), key, func(string) bool {
		t.Error("a single-member cluster attempted a peer")
		return true
	}) {
		t.Error("a walk with no peer owners reported an answer")
	}
}
