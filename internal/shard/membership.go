// Live membership: the cluster's member list is no longer frozen at
// boot. A Membership is an epoch-numbered member set — every change
// (join, leave) bumps the epoch on the node that originates it and is
// gossiped to the rest of the cluster, and any node adopts a view that
// is strictly newer than its own. Two views with the same epoch are
// ordered by the hash of their member list, so concurrent changes
// converge on one deterministic winner (the loser's change is repaired
// by the operator or a retried join; full version-vector merging is
// out of scope for a cache cluster whose worst case is a recompute).
//
// Layered under the membership is SUSPICION, a purely local and
// temporary view: the health prober marks a peer that fails K
// consecutive probes as suspect, and the cluster excludes it from the
// EFFECTIVE ring — the one ownership and replica placement actually
// use — via Ring.Without, readmitting it the moment a probe succeeds.
// Suspicion never changes the membership epoch: a wobbling node moves
// no data and needs no operator action, it just stops receiving
// proxies until it answers probes again.
package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// Membership is an epoch-numbered member set — the unit of the
// join/leave gossip protocol. Members are normalized, sorted node
// URLs.
type Membership struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// Hash fingerprints the member set (order-independent: members are
// kept sorted). Used to order same-epoch views and to let the health
// probe detect membership drift without shipping the full list.
func (m Membership) Hash() string {
	sum := sha256.Sum256([]byte(strings.Join(m.Members, "\n")))
	return hex.EncodeToString(sum[:8])
}

// newerThan reports whether m should replace cur: strictly higher
// epoch, or same epoch with a lexicographically greater member-set
// hash (the deterministic tie-break every node agrees on).
func (m Membership) newerThan(cur Membership) bool {
	if m.Epoch != cur.Epoch {
		return m.Epoch > cur.Epoch
	}
	return m.Hash() > cur.Hash()
}

// ChangeReason tags an effective-ring change for the OnChange hook.
type ChangeReason string

const (
	// ChangeMembership: the member list itself changed (join, leave, or
	// adopted gossip) — the trigger for a re-replication sweep.
	ChangeMembership ChangeReason = "membership"
	// ChangeSuspect: a peer failed K consecutive probes and left the
	// effective ring.
	ChangeSuspect ChangeReason = "suspect"
	// ChangeReadmit: a suspected peer answered a probe and rejoined the
	// effective ring — also sweep-triggering, so replicas thinned while
	// it was out are repaired.
	ChangeReadmit ChangeReason = "readmit"
)

// Membership returns this node's current membership view.
func (c *Cluster) Membership() Membership {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Membership{Epoch: c.epoch, Members: slices.Clone(c.members)}
}

// Epoch returns the current membership epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// RingVersion counts effective-ring rebuilds (membership changes AND
// suspicion/readmission). Tests poll it instead of sleeping.
func (c *Cluster) RingVersion() uint64 { return c.ringVersion.Load() }

// Suspects returns the currently suspected members, sorted.
func (c *Cluster) Suspects() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.suspects))
	for n := range c.suspects {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// OnChange registers the hook invoked (on its own goroutine) after
// every effective-ring change. At most one hook; the server uses it to
// schedule re-replication sweeps.
func (c *Cluster) OnChange(fn func(ChangeReason)) {
	c.mu.Lock()
	c.onChange = fn
	c.mu.Unlock()
}

// rebuildLocked recomputes the full and effective rings from the
// current members and suspects. Callers hold c.mu.
func (c *Cluster) rebuildLocked() {
	c.full = NewRing(c.members, c.vnodes)
	eff := c.full
	for n := range c.suspects {
		eff = eff.Without(n)
	}
	// Never exclude self: a fully-suspected view must still answer by
	// local compute, not route into the void.
	if eff.Len() == 0 {
		eff = NewRing([]string{c.self}, c.vnodes)
	}
	c.effective = eff
	c.ringVersion.Add(1)
}

// notify runs the change hook, if any. Called after c.mu is released.
func (c *Cluster) notify(reason ChangeReason) {
	c.mu.RLock()
	fn := c.onChange
	c.mu.RUnlock()
	if fn != nil {
		go fn(reason)
	}
}

// AdoptMembership installs ms if it is newer than the current view
// (always, when force is set — the join path, where the seed's answer
// is authoritative by construction). Reports whether the view changed.
func (c *Cluster) AdoptMembership(ms Membership, force bool) bool {
	norm := make([]string, 0, len(ms.Members))
	for _, m := range ms.Members {
		n, err := normalizeNode(m)
		if err != nil {
			return false
		}
		norm = append(norm, n)
	}
	slices.Sort(norm)
	norm = slices.Compact(norm)
	ms.Members = norm
	c.mu.Lock()
	cur := Membership{Epoch: c.epoch, Members: c.members}
	if len(ms.Members) == 0 || (!force && !ms.newerThan(cur)) {
		c.mu.Unlock()
		return false
	}
	c.epoch = ms.Epoch
	c.members = ms.Members
	// Drop suspicion state for departed members.
	for n := range c.suspects {
		if !slices.Contains(c.members, n) {
			delete(c.suspects, n)
		}
	}
	c.rebuildLocked()
	c.mu.Unlock()
	c.notify(ChangeMembership)
	return true
}

// AddMember adds node to the membership, bumping the epoch. Reports
// the resulting view and whether it changed (an existing member is an
// idempotent no-op — the rejoin-after-crash path).
func (c *Cluster) AddMember(node string) (Membership, bool, error) {
	n, err := normalizeNode(node)
	if err != nil {
		return Membership{}, false, err
	}
	c.mu.Lock()
	if slices.Contains(c.members, n) {
		ms := Membership{Epoch: c.epoch, Members: slices.Clone(c.members)}
		c.mu.Unlock()
		return ms, false, nil
	}
	c.members = append(slices.Clone(c.members), n)
	slices.Sort(c.members)
	c.epoch++
	c.rebuildLocked()
	ms := Membership{Epoch: c.epoch, Members: slices.Clone(c.members)}
	c.mu.Unlock()
	c.notify(ChangeMembership)
	return ms, true, nil
}

// RemoveMember removes node from the membership, bumping the epoch.
// Removing self leaves a single-member view (the departed node keeps
// answering standalone until it is shut down, rather than routing
// every request away from itself).
func (c *Cluster) RemoveMember(node string) (Membership, bool, error) {
	n, err := normalizeNode(node)
	if err != nil {
		return Membership{}, false, err
	}
	c.mu.Lock()
	if !slices.Contains(c.members, n) {
		ms := Membership{Epoch: c.epoch, Members: slices.Clone(c.members)}
		c.mu.Unlock()
		return ms, false, nil
	}
	rest := slices.DeleteFunc(slices.Clone(c.members), func(m string) bool { return m == n })
	if n == c.self || len(rest) == 0 {
		rest = []string{c.self}
	}
	c.members = rest
	delete(c.suspects, n)
	c.epoch++
	c.rebuildLocked()
	ms := Membership{Epoch: c.epoch, Members: slices.Clone(c.members)}
	c.mu.Unlock()
	c.breaker.forget(n)
	c.notify(ChangeMembership)
	return ms, true, nil
}

// Suspect excludes node from the effective ring (K probe failures —
// see Prober). Local and temporary: the membership epoch is untouched.
// Reports whether the node was newly suspected.
func (c *Cluster) Suspect(node string) bool {
	c.mu.Lock()
	if node == c.self || c.suspects[node] || !slices.Contains(c.members, node) {
		c.mu.Unlock()
		return false
	}
	c.suspects[node] = true
	c.rebuildLocked()
	c.mu.Unlock()
	c.suspicions.Add(1)
	c.notify(ChangeSuspect)
	return true
}

// Readmit returns a suspected node to the effective ring (a probe
// succeeded). Reports whether the node was suspected.
func (c *Cluster) Readmit(node string) bool {
	c.mu.Lock()
	if !c.suspects[node] {
		c.mu.Unlock()
		return false
	}
	delete(c.suspects, node)
	c.rebuildLocked()
	c.mu.Unlock()
	c.readmissions.Add(1)
	c.notify(ChangeReadmit)
	return true
}

// ReplicaSet returns the nodes owning key on the effective ring, in
// ring order: element 0 is the primary, the rest are replicas (R
// total, bounded by the live member count). Reads try the set in
// order; write-through replication targets every element.
func (c *Cluster) ReplicaSet(key string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.effective.OwnersN(key, c.replicas)
}

// Replicas returns the configured replication factor R.
func (c *Cluster) Replicas() int { return c.replicas }

// ReplicationDropped returns the cumulative count of write-through
// pushes shed by the replicator's full queue — the drop counter the
// server's repair tick watches to trigger a coalescing re-replication
// sweep (a drop otherwise leaves its key at R=1 until the next
// membership change).
func (c *Cluster) ReplicationDropped() uint64 { return c.replDropped.Load() }

// membershipPath is the gossip endpoint; joinPath/leavePath the
// operator-facing membership mutations; healthPath the prober's.
const (
	membershipPath = "/v1/cluster/membership"
	joinPath       = "/v1/cluster/join"
	leavePath      = "/v1/cluster/leave"
	healthPath     = "/v1/cluster/health"
)

// JoinVia asks seed to admit this node to its cluster and adopts the
// membership the seed answers with. The boot path behind the -join
// flag: a new node starts with a single-member view and inherits the
// seed's.
func (c *Cluster) JoinVia(ctx context.Context, seed string) (Membership, error) {
	seedN, err := normalizeNode(seed)
	if err != nil {
		return Membership{}, err
	}
	var ms Membership
	if err := c.callJSON(ctx, seedN, peerReq{class: classControl, method: http.MethodPost, path: joinPath, body: c.selfBody()},
		maxBodyLimit, &ms); err != nil {
		return Membership{}, err
	}
	if !slices.Contains(ms.Members, c.self) {
		return Membership{}, fmt.Errorf("shard: join via %s: returned membership omits self", seedN)
	}
	c.AdoptMembership(ms, true)
	return c.Membership(), nil
}

// LeaveVia announces this node's departure to peer, which removes it
// from the membership and gossips the change — the graceful-shutdown
// path. Best-effort: a failed leave just means the survivors suspect
// the node instead of removing it.
func (c *Cluster) LeaveVia(ctx context.Context, peer string) error {
	peerN, err := normalizeNode(peer)
	if err != nil {
		return err
	}
	resp, err := c.call(ctx, peerN, peerReq{class: classControl, method: http.MethodPost, path: leavePath, body: c.selfBody()})
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: leave via %s: status %d", peerN, resp.StatusCode)
	}
	return nil
}

// selfBody is the join/leave request body naming this node.
func (c *Cluster) selfBody() []byte {
	body, _ := json.Marshal(struct {
		Node string `json:"node"`
	}{Node: c.self})
	return body
}

// Gossip pushes ms to every member except self and adopts any newer
// view a receiver answers with (the receiver may have seen a later
// change). Push failures are logged, not fatal: the prober's
// anti-entropy comparison repairs missed gossip on its next round.
func (c *Cluster) Gossip(ctx context.Context, ms Membership) {
	body, err := json.Marshal(ms)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, m := range ms.Members {
		if m == c.self {
			continue
		}
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			var theirs Membership
			if err := c.callJSON(ctx, m, peerReq{class: classControl, method: http.MethodPost, path: membershipPath, body: body},
				maxBodyLimit, &theirs); err != nil {
				slog.Warn("shard: membership gossip failed", "peer", m, "epoch", ms.Epoch, "err", err)
				return
			}
			c.AdoptMembership(theirs, false)
		}(m)
	}
	wg.Wait()
}

// PullMembership fetches peer's membership view and adopts it if
// newer — the anti-entropy path the prober takes when a health probe
// reports an epoch ahead of ours.
func (c *Cluster) PullMembership(ctx context.Context, peer string) (Membership, error) {
	var ms Membership
	if err := c.GetJSON(ctx, peer, membershipPath, &ms); err != nil {
		return Membership{}, err
	}
	c.AdoptMembership(ms, false)
	return ms, nil
}
