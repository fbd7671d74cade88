// Write-through replication: the Replicator implements the engine's
// Replicate hook, so every locally-COMPUTED artifact is pushed to the
// key's replica owners (R-1 peers) through a bounded async queue —
// replication rides the network, never the job-completion path. The
// queue sheds under overload (drops are counted and repaired by the
// next re-replication sweep) rather than back-pressuring computation:
// a replica copy is an availability optimisation, not a durability
// requirement — the primary's own disk tier already has the artifact.
package shard

import (
	"context"
	"log/slog"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// replQueueCap bounds queued write-through pushes; replWorkers drain
// it. At test and smoke scale the queue never fills; under a sustained
// compute burst the oldest pushes are shed and counted.
const (
	replQueueCap = 1024
	replWorkers  = 4
)

type replJob struct {
	// ctx carries trace identity only — captured with
	// context.WithoutCancel at enqueue, because the push outlives the
	// request that computed the artifact.
	ctx context.Context
	key string
	val any
}

// Replicator is the engine.Replicator for one cluster node. Build with
// NewReplicator, wire into engine.Options.Replicate, Close on
// shutdown.
type Replicator struct {
	cl    *Cluster
	codec engine.Codec

	sendMu sync.Mutex
	closed bool
	queue  chan replJob
	wg     sync.WaitGroup
}

// ReplicatorOptions sizes a Replicator. Zero values select the
// package defaults; Workers < 0 starts none (tests use a worker-less
// replicator to force deterministic queue overflow).
type ReplicatorOptions struct {
	QueueCap int
	Workers  int
}

// NewReplicator starts the push workers for cl, encoding artifacts
// with codec (the same codec the peers' artifact endpoints decode
// with).
func NewReplicator(cl *Cluster, codec engine.Codec) *Replicator {
	return NewReplicatorOpts(cl, codec, ReplicatorOptions{})
}

// NewReplicatorOpts is NewReplicator with explicit queue/worker sizing.
func NewReplicatorOpts(cl *Cluster, codec engine.Codec, opts ReplicatorOptions) *Replicator {
	if opts.QueueCap <= 0 {
		opts.QueueCap = replQueueCap
	}
	if opts.Workers == 0 {
		opts.Workers = replWorkers
	}
	r := &Replicator{cl: cl, codec: codec, queue: make(chan replJob, opts.QueueCap)}
	for i := 0; i < opts.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Replicate queues the artifact for push to the key's replica owners.
// Non-blocking: a full queue drops the push (counted; the next sweep
// repairs it), a closed replicator ignores it. Kinds without a codec
// never enqueue — they cannot cross the wire.
func (r *Replicator) Replicate(ctx context.Context, key string, val any) {
	if !fetchableKinds[engine.JobKind(key)] || r.cl.Replicas() < 2 {
		return
	}
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if r.closed {
		return
	}
	select {
	case r.queue <- replJob{ctx: context.WithoutCancel(ctx), key: key, val: val}:
		r.cl.replPending.Add(1)
	default:
		r.cl.replDropped.Add(1)
	}
}

// Close drains in-flight pushes and stops the workers. Queued pushes
// are still delivered (the queue is closed, not abandoned), so a test
// or graceful shutdown that Closes observes Pending reach zero.
func (r *Replicator) Close() {
	r.sendMu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.sendMu.Unlock()
	r.wg.Wait()
}

func (r *Replicator) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.push(j)
		r.cl.replPending.Add(-1)
	}
}

// push delivers one artifact to every replica owner except self. The
// replica set is computed at DELIVERY time, not enqueue time, so a
// push queued just before a membership change lands on the owners the
// new ring actually names.
func (r *Replicator) push(j replJob) {
	kindTag := engine.JobKind(j.key)
	span, ctx := obs.StartSpan(j.ctx, "replicate "+kindTag, obs.A("key", j.key))
	defer span.End()
	targets := r.cl.PeerOwners(j.key)
	if len(targets) == 0 {
		span.SetAttr("outcome", "no-targets")
		return
	}
	kind, data, ok, err := r.codec.Encode(j.val)
	if err != nil {
		r.cl.replPushErrors.Add(1)
		span.SetAttr("outcome", "encode-error")
		slog.Warn("shard: replication encode failed", "key", j.key, "err", err)
		return
	}
	if !ok {
		span.SetAttr("outcome", "memory-only")
		return
	}
	span.SetAttr("bytes", strconv.Itoa(len(data)))
	for _, t := range targets {
		stored, err := r.cl.PushArtifact(ctx, t, j.key, kind, data)
		if err != nil {
			r.cl.replPushErrors.Add(1)
			slog.Warn("shard: replication push failed", "key", j.key, "peer", t, "err", err)
			continue
		}
		r.cl.replPushed.Add(1)
		if !stored {
			r.cl.replPushSkipped.Add(1)
		}
	}
}
