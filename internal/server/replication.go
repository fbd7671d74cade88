// Re-replication sweep: after any membership change (join, leave,
// adopted gossip) or a readmission, every node scans its own disk
// tier's key index — header-only, no payload decode — and pushes each
// artifact to any member of the key's current owner set that lacks it.
// Two effects from one mechanism: the moved arc (~1/N of keys)
// migrates to a joining node, and replicas thinned by a departure or
// outage are rebuilt to R copies. A check-then-push round trip bounds
// redundant bytes: converged keys cost one 204 per target and no
// payload.
//
// Suspicion alone does NOT trigger a sweep: a wobbling peer that
// flaps in and out of the effective ring should not start data
// migration — its keys are still served by the surviving replica —
// but its READMISSION does, repairing whatever write-through pushes it
// missed while out.
package server

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/shard"
)

// sweepCallTimeout bounds one check or push within a sweep (the fetch
// client's own timeout also applies; this keeps a sweep from wedging
// on a peer that dies mid-sweep).
const sweepCallTimeout = 30 * time.Second

// defaultReplRepairInterval paces the drop-repair tick (see
// Config.ReplRepairInterval).
const defaultReplRepairInterval = 2 * time.Second

// sweeper serialises re-replication sweeps: concurrent triggers
// coalesce into one "dirty" re-run, so a gossip storm costs at most
// one extra sweep, and Close waits for the active sweep to finish.
type sweeper struct {
	s *Server

	mu     sync.Mutex
	active bool
	dirty  bool
	closed bool
	wg     sync.WaitGroup

	// stopRepair ends the drop-repair tick goroutine (nil when the
	// server runs without a cluster or disk tier).
	stopRepair chan struct{}
}

// trigger schedules a sweep (or marks the running one dirty).
func (sw *sweeper) trigger() {
	if sw.s.cluster == nil || sw.s.eng.Disk() == nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return
	}
	if sw.active {
		sw.dirty = true
		return
	}
	sw.active = true
	sw.wg.Add(1)
	go sw.loop()
}

// close stops the repair tick and new sweeps, then waits for the
// active sweep.
func (sw *sweeper) close() {
	sw.mu.Lock()
	sw.closed = true
	stop := sw.stopRepair
	sw.stopRepair = nil
	sw.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	sw.wg.Wait()
}

func (sw *sweeper) loop() {
	defer sw.wg.Done()
	for {
		sw.s.runSweep()
		sw.mu.Lock()
		if !sw.dirty || sw.closed {
			sw.active = false
			sw.mu.Unlock()
			return
		}
		sw.dirty = false
		sw.mu.Unlock()
	}
}

// runSweep performs one pass over the local disk index. The membership
// epoch is captured FIRST: if the view moves mid-sweep, the stats
// record the epoch the sweep was consistent with, and the change that
// moved it triggers another sweep anyway.
func (s *Server) runSweep() {
	cl := s.cluster
	disk := s.eng.Disk()
	epoch := cl.Epoch()
	keys := disk.Keys()
	var scanned, pushed, skipped, errors uint64
	ctx := context.Background()
	for _, key := range keys {
		targets := cl.PeerOwners(key)
		if len(targets) == 0 {
			continue
		}
		scanned++
		// The encoded image is loaded at most once per key, and only
		// after some target actually needs it.
		var kind string
		var data []byte
		for _, t := range targets {
			cctx, cancel := context.WithTimeout(ctx, sweepCallTimeout)
			has, err := cl.CheckArtifact(cctx, t, key)
			cancel()
			if err != nil {
				errors++
				continue
			}
			if has {
				skipped++
				continue
			}
			if data == nil {
				var ok bool
				var err error
				// Evicted since Keys(), or no wire form: nothing to push.
				if kind, data, ok, err = s.artifactImage(key); err != nil || !ok {
					break
				}
			}
			pctx, cancel := context.WithTimeout(ctx, sweepCallTimeout)
			_, err = cl.PushArtifact(pctx, t, key, kind, data)
			cancel()
			if err != nil {
				errors++
				slog.Warn("server: re-replication push failed", "key", key, "peer", t, "err", err)
				continue
			}
			pushed++
		}
	}
	cl.NoteSweep(epoch, scanned, pushed, skipped, errors)
	slog.Info("server: re-replication sweep complete",
		"epoch", epoch, "keys", scanned, "pushed", pushed, "skipped", skipped, "errors", errors)
}

// wireSweeper hooks the sweeper into the cluster's change
// notifications and starts the drop-repair tick. Called once from
// NewWithConfig.
func (s *Server) wireSweeper(repairInterval time.Duration) {
	if s.cluster == nil {
		return
	}
	s.cluster.OnChange(func(reason shard.ChangeReason) {
		if reason == shard.ChangeSuspect {
			return
		}
		s.sweep.trigger()
	})
	// Drop-repair tick: write-through pushes shed on a full replicator
	// queue leave their keys at R=1, and with stable membership nothing
	// would ever resweep them. Watching the drop counter turns an
	// overflow burst into one coalesced sweep per interval instead of a
	// permanent under-replication.
	if s.eng.Disk() == nil {
		return
	}
	if repairInterval <= 0 {
		repairInterval = defaultReplRepairInterval
	}
	stop := make(chan struct{})
	s.sweep.stopRepair = stop
	go func() {
		tick := time.NewTicker(repairInterval)
		defer tick.Stop()
		last := s.cluster.ReplicationDropped()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := s.cluster.ReplicationDropped(); n != last {
					last = n
					s.sweep.trigger()
				}
			}
		}
	}()
}
