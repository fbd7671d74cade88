package spec

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Options configures a Speculator. Submit and Launch are required;
// the remaining hooks default to permissive no-ops.
type Options struct {
	// QueueLimit bounds the prediction queue (<=0 selects 64).
	// Predictions enqueued past the bound are dropped and counted —
	// speculation sheds itself before it sheds anything else.
	QueueLimit int
	// Paused reports that speculation should stand down right now
	// (admission gate saturated, server draining). Checked both when a
	// prediction is dequeued and again when the scheduler starts its
	// launch, so a prediction queued before saturation is withdrawn
	// rather than computed during it.
	Paused func() bool
	// Eligible reports whether key is worth launching: typically
	// "self-owned by the shard ring and not already in the store".
	Eligible func(key string) bool
	// Launch computes the predicted artifact under ctx and returns its
	// approximate stored size in bytes. The scheduler starts it from
	// its speculative queue once a core is idle.
	Launch func(ctx context.Context, p Prediction) (bytes int64, err error)
	// Submit hands fn to the scheduler's speculative (idle-only) task
	// class, returning the task's completion channel and a withdraw
	// function (sched.Scheduler.Speculate).
	Submit func(fn func()) (done <-chan struct{}, cancel func())
}

// launchRecord is the hit-accounting entry of one launched artifact.
type launchRecord struct {
	key   string
	bytes int64
	hit   bool
}

// Speculator drains a bounded queue of predictions through the
// scheduler's idle-only task class, one launch at a time, and each
// job leaf a launch reaches queues for a core behind any demand
// already waiting. It keeps the paper's spawn-scheme books: every
// launched artifact is remembered (bounded LRU) so a later demand
// request for its key counts as a hit and reclaims its bytes from the
// wasted-bytes gauge. All methods are safe for concurrent use.
type Speculator struct {
	opts   Options
	queue  chan Prediction
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	ll          *list.List // launched-record LRU, MRU at front
	launched    map[string]*list.Element
	predictions uint64
	launches    uint64
	hits        uint64
	withdrawn   uint64
	skipped     uint64
	errors      uint64
	dropped     uint64
	wastedBytes int64
}

// launchedCap bounds the hit-accounting LRU. A record evicted before
// its key is requested stays counted as wasted — by then it has sat
// unused through launchedCap subsequent launches.
const launchedCap = 1024

// NewSpeculator starts the launcher goroutine. Close releases it.
func NewSpeculator(opts Options) *Speculator {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 64
	}
	if opts.Paused == nil {
		opts.Paused = func() bool { return false }
	}
	if opts.Eligible == nil {
		opts.Eligible = func(string) bool { return true }
	}
	ctx, cancel := context.WithCancel(context.Background())
	sp := &Speculator{
		opts:     opts,
		queue:    make(chan Prediction, opts.QueueLimit),
		ctx:      ctx,
		cancel:   cancel,
		ll:       list.New(),
		launched: make(map[string]*list.Element),
	}
	sp.wg.Add(1)
	go sp.run()
	return sp
}

// Enqueue queues predictions for launch, dropping (and counting) any
// past the queue bound. Predictions for keys already launched and not
// yet evicted from the accounting LRU are skipped up front — a sweep
// that revisits its own trained pattern must not relaunch the world.
func (sp *Speculator) Enqueue(preds []Prediction) {
	for _, p := range preds {
		sp.mu.Lock()
		sp.predictions++
		_, seen := sp.launched[p.Key]
		sp.mu.Unlock()
		if seen {
			continue
		}
		select {
		case sp.queue <- p:
		default:
			sp.mu.Lock()
			sp.dropped++
			sp.mu.Unlock()
		}
	}
}

// run is the launcher: pop a prediction, vet it, hand it to the
// idle-only task class, wait for that single task to finish before
// popping the next.
func (sp *Speculator) run() {
	defer sp.wg.Done()
	for {
		select {
		case <-sp.ctx.Done():
			return
		case p := <-sp.queue:
			if sp.opts.Paused() {
				sp.count(&sp.withdrawn)
				continue
			}
			if !sp.opts.Eligible(p.Key) {
				sp.count(&sp.skipped)
				continue
			}
			done, cancel := sp.opts.Submit(func() { sp.launch(p) })
			select {
			case <-done:
			case <-sp.ctx.Done():
				cancel()
				return
			}
		}
	}
}

// launch is what the scheduler starts from its speculative queue.
// Conditions are re-checked here — at start time — so a task queued
// healthy but started during saturation or drain withdraws instead of
// computing.
func (sp *Speculator) launch(p Prediction) {
	if sp.ctx.Err() != nil || sp.opts.Paused() {
		sp.count(&sp.withdrawn)
		return
	}
	if !sp.opts.Eligible(p.Key) {
		sp.count(&sp.skipped)
		return
	}
	sp.mu.Lock()
	sp.launches++
	sp.mu.Unlock()
	bytes, err := sp.call(p)
	if err != nil {
		sp.count(&sp.errors)
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.launched[p.Key]; !ok {
		if sp.ll.Len() >= launchedCap {
			old := sp.ll.Back()
			sp.ll.Remove(old)
			delete(sp.launched, old.Value.(*launchRecord).key)
		}
		sp.launched[p.Key] = sp.ll.PushFront(&launchRecord{key: p.Key, bytes: bytes})
		sp.wastedBytes += bytes
	}
}

// call runs Launch and reports a panic in it as a failed launch: the
// launch runs on a goroutine of its own, where an unrecovered panic
// would end the process over a computation no request asked for.
func (sp *Speculator) call(p Prediction) (bytes int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spec: launch of %q panicked: %v", p.Key, r)
		}
	}()
	return sp.opts.Launch(sp.ctx, p)
}

// MarkDemand tells the speculator a demand request for key arrived; it
// reports whether that request hit a speculatively-launched artifact
// (first demand only — a hit is scored once, like the paper scores a
// spawned thread that commits).
func (sp *Speculator) MarkDemand(key string) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	el, ok := sp.launched[key]
	if !ok {
		return false
	}
	rec := el.Value.(*launchRecord)
	if rec.hit {
		return false
	}
	rec.hit = true
	sp.hits++
	sp.wastedBytes -= rec.bytes
	return true
}

// count bumps one counter under the lock.
func (sp *Speculator) count(c *uint64) {
	sp.mu.Lock()
	*c++
	sp.mu.Unlock()
}

// Stats is a point-in-time snapshot of speculation activity.
type Stats struct {
	// Predictions counts every prediction handed to Enqueue; Launches
	// counts speculative computations started; Hits counts launched
	// artifacts later requested on the demand path.
	Predictions uint64 `json:"predictions" metric:"spmt_spec_predictions_total" help:"Successor predictions produced by the spawn-point predictor."`
	Launches    uint64 `json:"launches" metric:"spmt_spec_launches_total" help:"Speculative artifact computations launched on idle cores."`
	Hits        uint64 `json:"hits" metric:"spmt_spec_hits_total" help:"Speculatively-launched artifacts later requested on the demand path."`
	// Withdrawn counts predictions stood down because the server was
	// saturated or draining; Skipped counts predictions vetoed by the
	// eligibility hook (already stored, not self-owned); Errors counts
	// failed launches; Dropped counts predictions shed by the bounded
	// queue.
	Withdrawn uint64 `json:"withdrawn" metric:"spmt_spec_withdrawn_total" help:"Predictions stood down for saturation or drain."`
	Skipped   uint64 `json:"skipped" metric:"spmt_spec_skipped_total" help:"Predictions vetoed as already stored or not self-owned."`
	Errors    uint64 `json:"errors" metric:"spmt_spec_errors_total" help:"Speculative launches that failed."`
	Dropped   uint64 `json:"dropped" metric:"spmt_spec_dropped_total" help:"Predictions shed by the bounded queue."`
	// WastedBytes is the store bytes held by launched artifacts no
	// demand request has asked for (the misprediction cost gauge);
	// Accuracy is Hits/Launches — the paper's spawn-scheme accuracy
	// analogue (0 when nothing has launched).
	WastedBytes int64   `json:"wasted_bytes" metric:"spmt_spec_wasted_bytes" help:"Store bytes held by launched artifacts no demand request has asked for."`
	Accuracy    float64 `json:"accuracy" metric:"spmt_spec_accuracy" help:"Hits/launches — the spawn-scheme accuracy analogue."`
	// QueueDepth is the instantaneous prediction-queue depth.
	QueueDepth int `json:"queue_depth" metric:"spmt_spec_queue_depth" help:"Predictions queued for launch."`
}

// Stats snapshots the speculator counters.
func (sp *Speculator) Stats() Stats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st := Stats{
		Predictions: sp.predictions,
		Launches:    sp.launches,
		Hits:        sp.hits,
		Withdrawn:   sp.withdrawn,
		Skipped:     sp.skipped,
		Errors:      sp.errors,
		Dropped:     sp.dropped,
		WastedBytes: sp.wastedBytes,
		QueueDepth:  len(sp.queue),
	}
	if sp.launches > 0 {
		st.Accuracy = float64(sp.hits) / float64(sp.launches)
	}
	return st
}

// Close stops the launcher, withdrawing any not-yet-started task, and
// cancels the context handed to in-flight launches. It does not wait
// for an already-running launch body — that body runs on a scheduler
// worker and aborts at its next context check.
func (sp *Speculator) Close() {
	sp.cancel()
	sp.wg.Wait()
}
