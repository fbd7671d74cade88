// Package cluster is the trace-driven, cycle-level model of the
// Clustered Speculative Multithreaded Processor the paper evaluates on
// (HPCA'02 §4.1): 4–16 thread units, each a 4-wide out-of-order core
// with a 64-entry reorder buffer, the paper's functional-unit mix,
// a 10-bit gshare branch predictor and a 32KB non-blocking L1 per unit,
// connected through a speculative versioning memory with a 3-cycle
// inter-unit forwarding latency.
//
// Threads are segments of the sequential dynamic trace. Reaching a
// spawning point allocates a free thread unit at the next dynamic
// occurrence of the control quasi-independent point; threads commit in
// program order; consuming a mispredicted live-in squashes and restarts
// the thread at join-time validation, and memory dependence violations
// squash the offending thread and everything more speculative. The
// dynamic policies of §4.2 — spawning-pair removal by alone-cycles
// (with delayed occurrences), CQIP reassignment, and minimum thread
// size — are all implemented here.
package cluster

import (
	"fmt"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/core"
)

// PredictorKind selects the live-in value predictor.
type PredictorKind int

// Value predictor kinds of §4.3.1.
const (
	// Perfect makes every thread input value available and correct at
	// spawn time.
	Perfect PredictorKind = iota
	// Stride is the 16KB last-value+stride predictor.
	Stride
	// Context is the 16KB order-2 FCM predictor.
	Context
	// LastValue predicts the previously observed value.
	LastValue
	// Hybrid combines stride and context with a per-entry chooser
	// (extension; not in the paper's evaluation).
	Hybrid
)

// String names the predictor kind.
func (k PredictorKind) String() string {
	switch k {
	case Perfect:
		return "perfect"
	case Stride:
		return "stride"
	case Context:
		return "context"
	case LastValue:
		return "last-value"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("predictor(%d)", int(k))
	}
}

// Config parameterises a simulation. The zero value (plus a Pairs
// table) reproduces the paper's 16-TU perfect-prediction baseline.
type Config struct {
	// TUs is the number of thread units (default 16; the paper studies
	// 4 and 16). With a nil Pairs table one TU executes the program
	// sequentially — the paper's single-threaded baseline.
	TUs int
	// FetchWidth / IssueWidth / CommitWidth default to 4.
	FetchWidth, IssueWidth, CommitWidth int
	// ROB is the per-TU reorder buffer size (default 64).
	ROB int
	// BPredBits is the gshare history length (default 10).
	BPredBits uint
	// Cache configures each TU's L1 (zero = the paper's 32KB 2-way).
	Cache cache.Config
	// ForwardLat is the inter-TU memory forwarding latency (default 3).
	ForwardLat int64
	// SpawnOverhead is the thread initialisation penalty in cycles
	// suffered by the spawned thread (§4.3.2; 0 or 8).
	SpawnOverhead int64
	// Predictor selects the live-in value predictor (§4.3.1).
	Predictor PredictorKind
	// PredictorBytes is the predictor hardware budget (default 16KB).
	PredictorBytes int
	// Pairs is the spawn-pair table; nil disables speculation.
	Pairs *core.Table
	// Reassign enables the §4.2 reassign policy: when the preferred
	// CQIP is unavailable or removed, the next candidate for the same
	// SP is tried.
	Reassign bool
	// RemovalCycles enables spawning-pair removal: a pair is removed
	// once a thread it created has executed alone for this many cycles
	// (0 disables; the paper studies 50 and 200).
	RemovalCycles int64
	// RemovalOccurrences delays removal until the alone condition has
	// been observed this many times (default 1; the paper studies 8
	// and 16).
	RemovalOccurrences int
	// RemovalFewThreshold widens the removal trigger from "executing
	// alone" to "executing with at most this many threads while others
	// wait" (the paper's footnoted variant; 0 keeps the strict alone
	// condition, i.e. threshold 1).
	RemovalFewThreshold int
	// RemovalRevisit re-enables a removed pair after this many cycles
	// (the paper's footnoted variant reports "very small improvements";
	// 0 = removed pairs stay removed).
	RemovalRevisit int64
	// MinThreadSize removes pairs whose committed threads are smaller
	// than this many instructions (0 disables; the paper uses 32).
	MinThreadSize int
	// SpawnWindowFactor, when positive, adds an expected-distance
	// window to profile-table pairs: a spawn whose actual SP→CQIP
	// distance exceeds factor × the pair's expected distance is
	// treated as a wrong-path thread. The paper's hardware has no such
	// window (distant threads simply live long and the removal policy
	// copes), so the default is 0; the knob exists for the ablation
	// study. Construct pairs (loop iteration/continuation, subroutine
	// continuation) always use construct-level misspeculation
	// detection.
	SpawnWindowFactor float64
	// SpawnWindowMin is the floor of the optional window in
	// instructions (default 64).
	SpawnWindowMin int
	// ThreadCommitsPerCycle bounds how many threads can merge their
	// speculative state into architected state per cycle (default 1).
	ThreadCommitsPerCycle int
	// MaxCycles aborts runaway simulations (default 200× trace length).
	MaxCycles int64
	// CollectPairStats enables Result.PairStats.
	CollectPairStats bool
}

func (c Config) withDefaults() Config {
	if c.TUs == 0 {
		c.TUs = 16
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 4
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = 4
	}
	if c.ROB == 0 {
		c.ROB = 64
	}
	if c.BPredBits == 0 {
		c.BPredBits = 10
	}
	if c.ForwardLat == 0 {
		c.ForwardLat = 3
	}
	if c.PredictorBytes == 0 {
		c.PredictorBytes = 16 << 10
	}
	if c.RemovalOccurrences == 0 {
		c.RemovalOccurrences = 1
	}
	if c.SpawnWindowMin == 0 {
		c.SpawnWindowMin = 64
	}
	if c.ThreadCommitsPerCycle == 0 {
		c.ThreadCommitsPerCycle = 1
	}
	return c
}

// Result carries the statistics of one simulation.
type Result struct {
	Cycles int64
	// Committed is the number of architecturally committed
	// instructions (always the trace length).
	Committed int64
	// Fetched counts all fetched instructions, including squashed
	// work.
	Fetched int64
	// IPC is Committed/Cycles.
	IPC float64

	// AvgActiveThreads is the time-average number of threads executing
	// instructions (Figure 4's metric); AvgAllocatedThreads includes
	// finished threads waiting to commit.
	AvgActiveThreads    float64
	AvgAllocatedThreads float64

	// ThreadsCommitted counts committed speculative threads;
	// AvgThreadSize is their mean size in instructions (Figure 7a).
	ThreadsCommitted int64
	AvgThreadSize    float64

	// Spawn accounting.
	Spawns                int64
	SpawnsBlockedNoTU     int64
	SpawnsBlockedOccupied int64
	SpawnsBlockedRegion   int64

	// Squash accounting. MispredictStalls counts stall-on-use
	// recoveries of mispredicted thread inputs (selective reissue
	// timing); the others count full thread squashes.
	MispredictStalls     int64
	MemViolationSquashes int64
	ControlSquashes      int64
	ThreadsKilled        int64

	// Value prediction (live-ins only, §4.3.1).
	VPLookups int64
	VPHits    int64

	// Policy effects.
	PairsRemovedAlone   int64
	PairsRemovedMinSize int64
	PairsRevisited      int64

	// Substrate stats.
	Branches, BranchMispredicts int64
	CacheHits, CacheMisses      uint64
	SVCForwards, SVCViolations  uint64

	// PairStats (when Config.CollectPairStats) records per-pair spawn
	// effectiveness, keyed by (SP, CQIP).
	PairStats map[PairID]*PairStat
}

// ApproxBytes reports the result's approximate resident size for
// engine cache accounting: the block of counters plus the optional
// per-pair statistics map (~120B per pair with its map slot). A Result
// is its own allocation — Simulate retains nothing else behind it.
func (r *Result) ApproxBytes() int64 {
	return int64(unsafe.Sizeof(*r)) + int64(len(r.PairStats))*120
}

// PairID keys per-pair statistics.
type PairID struct{ SP, CQIP uint32 }

// MarshalText renders the key as "SP-CQIP" so Result (whose PairStats
// map is keyed by PairID) serialises to JSON — the spmt-server API
// returns Result bodies verbatim.
func (id PairID) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d-%d", id.SP, id.CQIP)), nil
}

// PairStat aggregates one pair's dynamic behaviour.
type PairStat struct {
	Spawns        int64 // threads created
	Committed     int64 // threads that committed
	CommitInstrs  int64 // instructions committed by those threads
	Doomed        int64 // wrong-path spawns
	BlockedRegion int64
	BlockedNoTU   int64
	Squashes      int64 // validation + violation restarts of its threads
}

// VPAccuracy returns the live-in prediction hit ratio (0 when no
// predictions were made).
func (r *Result) VPAccuracy() float64 {
	if r.VPLookups == 0 {
		return 0
	}
	return float64(r.VPHits) / float64(r.VPLookups)
}
