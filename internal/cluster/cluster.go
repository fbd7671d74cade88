package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/vpred"
)

type threadState uint8

const (
	running threadState = iota
	finished
)

// thread is one in-flight speculative thread: a contiguous segment
// [start, end) of the dynamic trace executing on a thread unit. The
// program-order key is the start position, which is stable across
// restarts.
type thread struct {
	order      int
	tu         int
	start, end int
	pos        int
	state      threadState
	pair       *core.Pair
	spawnPos   int

	regReady   [isa.NumRegs]int64
	rob        []int64
	robHead    int
	robCount   int
	fetchReady int64

	written  uint32 // bitmask of registers written by this thread
	consumed uint32 // registers read before being written
	// inKnown marks live-in registers whose correctness is classified
	// (at spawn by the value predictor, or at first read); inOK holds
	// the classification.
	inKnown uint32
	inOK    uint32
	// stalled marks a thread waiting for a mispredicted live-in's
	// correct value to be forwarded from its producer (stall-on-use
	// recovery; see checkInput).
	stalled   bool
	stallReg  isa.Reg
	validated bool

	aloneCycles  int64
	aloneCounted bool
	restarts     int
}

// tuState is the per-thread-unit hardware that persists across the
// threads scheduled onto the unit (the paper keeps predictor and cache
// state warm across spawns).
type tuState struct {
	bp *bpred.Gshare
	l1 *cache.Cache
	*units
}

// pendingSpawn is a spawn request waiting for a free thread unit: the
// spawn hardware holds the request and grants it when a context
// becomes available, provided the requester has not yet crossed the
// target CQIP occurrence.
type pendingSpawn struct {
	requester *thread
	pair      *core.Pair
	q         int
}

// doomed is a wrong-path thread: its pair predicted the CQIP would be
// reached soon after the SP, but control flow went elsewhere. The
// thread unit is occupied until the spawner passes the expected join
// region, at which point the misprediction is detectable and the
// thread is squashed.
type doomed struct {
	tu         int
	spawner    *thread
	releasePos int
}

// minSizeOccurrences is how many below-minimum threads a pair must
// commit before the minimum-thread-size policy removes it.
const minSizeOccurrences = 8

type pairKey struct{ sp, cqip uint32 }

type pairRuntime struct {
	disabled      bool
	disabledAt    int64
	aloneOccur    int
	smallObserved int
}

type sim struct {
	cfg    Config
	tr     *trace.Trace
	events []trace.Event
	regIdx *trace.RegIndex

	svcMem    *svc.Memory
	tus       []*tuState
	threads   []*thread
	freeROBs  [][]int64 // reorder buffers of retired threads, for reuse
	freeTUs   []int
	bySP      map[uint32][]*core.Pair
	pairState map[pairKey]*pairRuntime
	predictor vpred.Predictor

	now           int64
	pendingSquash []int // orders to squash after the cycle
	pendingSpawns []pendingSpawn
	doomedThreads []doomed

	res           Result
	activeSum     float64
	allocatedSum  float64
	threadSizeSum int64
}

// Simulate runs the processor model over the trace and returns the
// statistics. The trace index must be buildable (it is built here).
// The returned Result is its own allocation: it holds no reference to
// the simulator, whose thread-unit ledgers go back to a pool.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if tr.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	if cfg.TUs < 1 {
		return nil, fmt.Errorf("cluster: TUs = %d", cfg.TUs)
	}
	tr.BuildIndex()

	s := &sim{
		cfg:       cfg,
		tr:        tr,
		events:    tr.Events,
		svcMem:    svc.New(cfg.ForwardLat),
		pairState: make(map[pairKey]*pairRuntime),
	}
	if cfg.Pairs != nil {
		s.regIdx = tr.Regs()
		s.bySP = make(map[uint32][]*core.Pair, cfg.Pairs.Len())
		for i := range cfg.Pairs.Primary {
			p := &cfg.Pairs.Primary[i]
			s.bySP[p.SP] = append(s.bySP[p.SP], p)
		}
		if cfg.Reassign {
			for sp, alts := range cfg.Pairs.Alternates {
				for i := range alts {
					s.bySP[sp] = append(s.bySP[sp], &alts[i])
				}
			}
		}
		switch cfg.Predictor {
		case Stride:
			s.predictor = vpred.NewStride(cfg.PredictorBytes)
		case Context:
			s.predictor = vpred.NewFCM(cfg.PredictorBytes)
		case LastValue:
			s.predictor = vpred.NewLastValue(cfg.PredictorBytes)
		case Hybrid:
			s.predictor = vpred.NewHybrid(cfg.PredictorBytes)
		}
	}

	s.tus = make([]*tuState, cfg.TUs)
	for i := range s.tus {
		s.tus[i] = &tuState{
			bp:    bpred.NewGshare(cfg.BPredBits),
			l1:    cache.New(cfg.Cache),
			units: getUnits(cfg.IssueWidth),
		}
	}
	defer func() {
		for _, tu := range s.tus {
			unitPool.Put(tu.units)
		}
	}()
	for i := cfg.TUs - 1; i >= 1; i-- {
		s.freeTUs = append(s.freeTUs, i)
	}

	root := &thread{
		order: 0, tu: 0, start: 0, end: tr.Len(), pos: 0,
		state: running, validated: true,
		rob: s.newROB(),
	}
	s.threads = []*thread{root}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200*int64(tr.Len()) + 1_000_000
	}

	for len(s.threads) > 0 {
		if s.now >= maxCycles {
			return nil, fmt.Errorf("cluster: exceeded %d cycles (deadlock?)", maxCycles)
		}
		s.now++
		active := 0
		for _, t := range s.threads {
			executing := t.state == running || t.robCount > 0
			s.stepThread(t)
			if executing {
				active++
			}
		}
		s.activeSum += float64(active)
		s.allocatedSum += float64(len(s.threads))

		if len(s.pendingSquash) > 0 {
			s.applyViolations()
		}
		s.applyRemovalPolicy(active)
		s.validateSuccessors()
		s.commitHead()
		s.releaseDoomed()
		s.grantPending()
	}

	s.res.Cycles = s.now
	s.res.Committed = int64(tr.Len())
	s.res.IPC = float64(s.res.Committed) / float64(s.res.Cycles)
	s.res.AvgActiveThreads = s.activeSum / float64(s.now)
	s.res.AvgAllocatedThreads = s.allocatedSum / float64(s.now)
	if s.res.ThreadsCommitted > 0 {
		s.res.AvgThreadSize = float64(s.threadSizeSum) / float64(s.res.ThreadsCommitted)
	}
	for _, tu := range s.tus {
		s.res.CacheHits += tu.l1.Hits
		s.res.CacheMisses += tu.l1.Misses
	}
	s.res.SVCForwards = s.svcMem.Forwards
	s.res.SVCViolations = s.svcMem.Violations
	res := s.res
	return &res, nil
}

// newROB returns an empty reorder buffer, reusing a retired thread's.
// Entries are written before they are read, so no clearing is needed.
func (s *sim) newROB() []int64 {
	if n := len(s.freeROBs); n > 0 {
		rob := s.freeROBs[n-1]
		s.freeROBs = s.freeROBs[:n-1]
		return rob
	}
	return make([]int64, s.cfg.ROB)
}

// retire recycles a thread's reorder buffer once the thread has left
// s.threads for good (committed or killed).
func (s *sim) retire(t *thread) {
	s.freeROBs = append(s.freeROBs, t.rob)
	t.rob = nil
}

// stepThread advances one thread unit by one cycle: retire up to
// CommitWidth completed instructions in order, then fetch up to
// FetchWidth instructions (stopping at taken branches, mispredictions,
// a full ROB, or the segment end), scheduling each fetched instruction
// onto the issue ports and functional units.
func (s *sim) stepThread(t *thread) {
	retired := 0
	for t.robCount > 0 && retired < s.cfg.CommitWidth {
		if t.rob[t.robHead] > s.now {
			break
		}
		t.robHead = (t.robHead + 1) % len(t.rob)
		t.robCount--
		retired++
	}
	if t.state == finished || t.fetchReady > s.now {
		return
	}
	tu := s.tus[t.tu]
	fetched := 0
	for fetched < s.cfg.FetchWidth {
		if t.pos >= t.end {
			t.state = finished
			return
		}
		if t.robCount == len(t.rob) {
			return // ROB full
		}
		ev := &s.events[t.pos]

		if s.bySP != nil {
			if cands, ok := s.bySP[ev.PC]; ok {
				if s.trySpawn(t, cands) {
					// The spawn operation occupies the front-end this
					// cycle: the fetch group ends after this
					// instruction's dispatch.
					fetched = s.cfg.FetchWidth - 1
				}
			}
		}

		dispatch := s.now + 1
		ready := dispatch
		ins := isa.Instruction{Op: ev.Op, Dst: ev.Dst, Src1: ev.Src1, Src2: ev.Src2}
		regs, n := ins.Reads()
		for i := 0; i < n; i++ {
			r := regs[i]
			if t.written&(1<<r) == 0 {
				t.consumed |= 1 << r
				if t.pair != nil && !t.validated {
					s.checkInput(t, r)
				}
			}
			if t.regReady[r] > ready {
				ready = t.regReady[r]
			}
		}

		class := ev.Op.FU()
		var issue int64
		if class == isa.FUNone {
			issue = ready
		} else {
			issue = allocJoint(&tu.issue, &tu.fus[class], ready)
		}

		var done int64
		switch ev.Op {
		case isa.OpLoad:
			addrReady := issue + 1
			svcReady, _, fromSVC := s.svcMem.Load(t.order, t.tu, ev.Addr, t.pos, addrReady)
			if fromSVC {
				done = svcReady
			} else {
				done = tu.l1.Access(ev.Addr, addrReady)
			}
			if done < addrReady {
				done = addrReady
			}
		case isa.OpStore:
			done = issue + 1
			for _, v := range s.svcMem.Store(t.order, t.tu, ev.Addr, t.pos, done) {
				s.pendingSquash = append(s.pendingSquash, v.Order)
			}
		default:
			done = issue + int64(ev.Op.Latency())
		}

		if ev.Op.WritesReg() && ev.Dst != 0 {
			t.regReady[ev.Dst] = done
			t.written |= 1 << ev.Dst
		}
		t.rob[(t.robHead+t.robCount)%len(t.rob)] = done
		t.robCount++
		t.pos++
		fetched++
		s.res.Fetched++

		if ev.Op.IsBranch() {
			taken := ev.Next != ev.PC+1
			pred := tu.bp.Predict(ev.PC)
			tu.bp.Update(ev.PC, taken)
			s.res.Branches++
			if pred != taken {
				s.res.BranchMispredicts++
				t.fetchReady = done + 1
				return
			}
			if taken {
				return // taken branches end the fetch group
			}
		} else if ev.Op.IsControl() && ev.Op != isa.OpHalt {
			return // jmp/call/ret redirect fetch (perfect target prediction)
		}
	}
}

// checkInput handles a speculative thread reading register r before
// writing it. Live-ins covered by the value predictor were classified
// at spawn time; any other register is correct iff its value did not
// change between the spawn point and the CQIP (the spawned thread
// inherits the spawner's register file). A mispredicted input is
// recovered selectively: the correct value is forwarded when its
// producer executes, so instructions dependent on it simply see the
// register become ready at the producer's (estimated) completion time,
// while independent instructions proceed — the timing of selective
// reissue in the paper's architecture family.
func (s *sim) checkInput(t *thread, r isa.Reg) {
	bit := uint32(1) << r
	if t.inKnown&bit != 0 {
		if t.inOK&bit != 0 {
			return
		}
		// classified wrong at spawn; apply the forwarding delay once
	} else {
		t.inKnown |= bit
		if s.regIdx.ValueAt(r, t.start) == s.regIdx.ValueAt(r, t.spawnPos) {
			t.inOK |= bit
			return
		}
	}
	s.res.MispredictStalls++
	at := s.deliveryEstimate(t, r)
	if t.regReady[r] < at {
		t.regReady[r] = at
	}
	t.inOK |= bit // the forwarded value is correct from now on
}

// deliveryEstimate returns the cycle at which the architecturally
// correct value of register r (as of t.start) is forwarded to t: the
// producing instruction's estimated completion plus the inter-unit
// forwarding latency. Producers that already executed (or committed)
// forward immediately.
func (s *sim) deliveryEstimate(t *thread, r isa.Reg) int64 {
	pp := s.regIdx.LastWriteBefore(r, t.start)
	if pp < 0 {
		return s.now + 1 // never written: architected zero
	}
	owner := s.threadOwning(pp)
	if owner == nil || owner.pos > pp {
		return s.now + s.cfg.ForwardLat
	}
	// The producer is (pp - owner.pos) instructions ahead of the
	// owning thread's fetch point; assume it advances at roughly half
	// its fetch width.
	est := int64(pp-owner.pos)*2/int64(s.cfg.FetchWidth) + 1
	return s.now + est + s.cfg.ForwardLat
}

// threadOwning returns the active thread whose region contains the
// trace position, or nil if that region has committed.
func (s *sim) threadOwning(pos int) *thread {
	for _, t := range s.threads {
		if pos >= t.start && pos < t.end {
			return t
		}
	}
	return nil
}

// trySpawn attempts to create a thread at the first viable candidate
// pair (primary, then alternates under the reassign policy). When no
// thread unit is free the request is queued and granted when one frees.
// It reports whether a spawn operation was issued (including wrong-path
// spawns), which costs the spawner its fetch group.
func (s *sim) trySpawn(t *thread, cands []*core.Pair) bool {
	for _, p := range cands {
		if s.pairDisabled(p) {
			continue
		}
		q := s.tr.NextOccurrence(p.CQIP, t.pos)
		if q < 0 || q >= t.end {
			s.res.SpawnsBlockedRegion++
			if st := s.pairStat(p); st != nil {
				st.BlockedRegion++
			}
			continue
		}
		if s.threadAt(q) != nil {
			s.res.SpawnsBlockedOccupied++
			continue
		}
		if bad, detectPos := s.misspeculated(t, p, q); bad {
			// Control misspeculation: the CQIP is not actually
			// reached the way the pair predicted (the loop exited, or
			// the return is not the matching one). The hardware
			// cannot know that yet — it burns a thread unit on a
			// wrong-path thread until the failed join is detectable,
			// bounded by the squash hardware's resolution window.
			if st := s.pairStat(p); st != nil {
				st.Doomed++
			}
			if len(s.freeTUs) > 0 {
				tu := s.freeTUs[len(s.freeTUs)-1]
				s.freeTUs = s.freeTUs[:len(s.freeTUs)-1]
				if cap := t.pos + s.cfg.SpawnWindowMin; detectPos > cap || detectPos <= t.pos {
					detectPos = cap
				}
				s.doomedThreads = append(s.doomedThreads, doomed{
					tu: tu, spawner: t, releasePos: detectPos,
				})
			}
			return true
		}
		if len(s.freeTUs) == 0 {
			s.res.SpawnsBlockedNoTU++
			if st := s.pairStat(p); st != nil {
				st.BlockedNoTU++
			}
			s.queueSpawn(t, p, q)
			return false
		}
		s.spawn(t, p, q)
		return true
	}
	return false
}

// spawnWindow returns the misspeculation window for a pair in
// instructions.
func (s *sim) spawnWindow(p *core.Pair) int {
	w := int(s.cfg.SpawnWindowFactor * p.Dist)
	if w < s.cfg.SpawnWindowMin {
		w = s.cfg.SpawnWindowMin
	}
	return w
}

// misspeculated decides whether a spawn at trace position t.pos
// targeting the next CQIP occurrence q is a wrong-path thread, using
// the spawn hardware's own semantics for each pair kind:
//
//   - loop-iteration / loop-continuation constructs predict the CQIP is
//     reached without leaving the loop — leaving the static loop body
//     at the loop's own call depth (or returning out of its function)
//     means the loop exited first;
//   - subroutine continuations (including the profile scheme's return
//     pairs) use return-address-stack semantics — the thread is correct
//     only if q is the matching return of this call;
//   - other profile-table pairs have no construct to mispredict: the
//     thread targets the next dynamic CQIP occurrence wherever it is,
//     and a distant one simply lives long (the cost the paper's
//     removal policy addresses). An optional expected-distance window
//     (SpawnWindowFactor) is available for ablation.
//
// The second return value is the trace position at which the spawner
// can detect the failed join (the wrong-path thread is squashed when
// the spawner crosses it).
func (s *sim) misspeculated(t *thread, p *core.Pair, q int) (bool, int) {
	switch p.Kind {
	case core.KindLoopIter, core.KindLoopCont:
		return s.leavesLoop(t.pos, q, p.SP, p.LoopEnd)
	case core.KindSubCont, core.KindReturn:
		if !s.matchingReturn(t.pos, q) {
			return true, q
		}
		return false, 0
	default:
		if s.cfg.SpawnWindowFactor > 0 {
			if w := s.spawnWindow(p); q-t.pos > w {
				return true, t.pos + w
			}
		}
		return false, 0
	}
}

// leavesLoop reports whether the dynamic path strictly between p and q
// leaves the static loop body [head, backedge] at the loop's own call
// depth, or returns out of the loop's function entirely; the second
// return value is the position where it first does so.
func (s *sim) leavesLoop(p, q int, head, backedge uint32) (bool, int) {
	depth := 0
	for i := p + 1; i < q; i++ {
		ev := &s.events[i]
		if depth == 0 && (ev.PC < head || ev.PC > backedge) {
			return true, i
		}
		switch ev.Op {
		case isa.OpCall:
			depth++
		case isa.OpRet:
			depth--
			if depth < 0 {
				return true, i
			}
		}
	}
	return false, 0
}

// matchingReturn reports whether position q (the next occurrence of the
// call's fall-through PC) is reached by the matching return of the call
// at position p — i.e., the call depth is back to zero when control
// arrives at q.
func (s *sim) matchingReturn(p, q int) bool {
	depth := 0
	for i := p; i < q; i++ {
		switch s.events[i].Op {
		case isa.OpCall:
			depth++
		case isa.OpRet:
			depth--
		}
	}
	return depth == 0
}

// releaseDoomed frees the thread units of wrong-path threads whose
// misprediction has become detectable.
func (s *sim) releaseDoomed() {
	if len(s.doomedThreads) == 0 {
		return
	}
	kept := s.doomedThreads[:0]
	for _, d := range s.doomedThreads {
		alive := false
		for _, t := range s.threads {
			if t == d.spawner {
				alive = true
				break
			}
		}
		if alive && d.spawner.state == running && d.spawner.pos < d.releasePos {
			kept = append(kept, d)
			continue
		}
		s.freeTUs = append(s.freeTUs, d.tu)
		s.res.ControlSquashes++
	}
	s.doomedThreads = kept
}

func (s *sim) threadAt(q int) *thread {
	for _, u := range s.threads {
		if u.start == q {
			return u
		}
	}
	return nil
}

// queueSpawn files a pending spawn request (one per target position,
// bounded queue).
func (s *sim) queueSpawn(t *thread, p *core.Pair, q int) {
	for i := range s.pendingSpawns {
		if s.pendingSpawns[i].q == q {
			return
		}
	}
	if len(s.pendingSpawns) >= 4*s.cfg.TUs {
		return
	}
	s.pendingSpawns = append(s.pendingSpawns, pendingSpawn{requester: t, pair: p, q: q})
}

// grantPending issues queued spawn requests to freed thread units, in
// program order, dropping requests invalidated by execution having
// moved past them.
func (s *sim) grantPending() {
	if len(s.pendingSpawns) == 0 {
		return
	}
	// queueSpawn keeps each q unique, so any sort yields one order.
	slices.SortFunc(s.pendingSpawns, func(a, b pendingSpawn) int { return cmp.Compare(a.q, b.q) })
	kept := s.pendingSpawns[:0]
	for _, ps := range s.pendingSpawns {
		if s.pairDisabled(ps.pair) {
			continue
		}
		alive := false
		for _, t := range s.threads {
			if t == ps.requester {
				alive = true
				break
			}
		}
		if !alive || ps.requester.pos >= ps.q || ps.q >= ps.requester.end || s.threadAt(ps.q) != nil {
			continue
		}
		if len(s.freeTUs) == 0 {
			kept = append(kept, ps)
			continue
		}
		s.spawn(ps.requester, ps.pair, ps.q)
	}
	s.pendingSpawns = kept
}

// pairDisabled reports whether a pair is currently removed, honouring
// the revisit policy that re-enables removed pairs after a while.
func (s *sim) pairDisabled(p *core.Pair) bool {
	st := s.pairRT(p)
	if !st.disabled {
		return false
	}
	if s.cfg.RemovalRevisit > 0 && s.now-st.disabledAt >= s.cfg.RemovalRevisit {
		st.disabled = false
		st.aloneOccur = 0
		st.smallObserved = 0
		s.res.PairsRevisited++
		return false
	}
	return true
}

func (s *sim) pairRT(p *core.Pair) *pairRuntime {
	k := pairKey{p.SP, p.CQIP}
	st, ok := s.pairState[k]
	if !ok {
		st = &pairRuntime{}
		s.pairState[k] = st
	}
	return st
}

// pairStat returns the per-pair stats record (nil unless enabled).
func (s *sim) pairStat(p *core.Pair) *PairStat {
	if !s.cfg.CollectPairStats || p == nil {
		return nil
	}
	if s.res.PairStats == nil {
		s.res.PairStats = make(map[PairID]*PairStat)
	}
	id := PairID{p.SP, p.CQIP}
	st, ok := s.res.PairStats[id]
	if !ok {
		st = &PairStat{}
		s.res.PairStats[id] = st
	}
	return st
}

// spawn allocates a TU and inserts the new thread in program order.
func (s *sim) spawn(t *thread, p *core.Pair, q int) {
	tuIdx := s.freeTUs[len(s.freeTUs)-1]
	s.freeTUs = s.freeTUs[:len(s.freeTUs)-1]

	start := s.now + 1 + s.cfg.SpawnOverhead
	child := &thread{
		order: q, tu: tuIdx, start: q, end: t.end, pos: q,
		state: running, pair: p, spawnPos: t.pos,
		fetchReady: start,
		rob:        s.newROB(),
	}
	for r := range child.regReady {
		child.regReady[r] = start
	}
	s.tus[tuIdx].bp.ResetHistory()
	if s.cfg.Predictor == Perfect || s.predictor == nil {
		child.validated = true
	} else {
		for _, r := range p.LiveIns {
			actual := s.regIdx.ValueAt(r, q)
			predicted, known := s.predictor.Predict(p.SP, p.CQIP, r)
			s.predictor.Update(p.SP, p.CQIP, r, actual)
			bit := uint32(1) << r
			child.inKnown |= bit
			s.res.VPLookups++
			if known && predicted == actual {
				s.res.VPHits++
				child.inOK |= bit
			} else {
				child.inOK &^= bit
			}
		}
	}
	t.end = q

	// Insert in program order.
	i := sort.Search(len(s.threads), func(i int) bool { return s.threads[i].start > q })
	s.threads = append(s.threads, nil)
	copy(s.threads[i+1:], s.threads[i:])
	s.threads[i] = child
	s.res.Spawns++
	if st := s.pairStat(p); st != nil {
		st.Spawns++
	}
}

// applyViolations squashes the least speculative violating thread
// (restarting it in place) and kills everything more speculative.
func (s *sim) applyViolations() {
	min := s.pendingSquash[0]
	for _, o := range s.pendingSquash[1:] {
		if o < min {
			min = o
		}
	}
	s.pendingSquash = s.pendingSquash[:0]
	for _, t := range s.threads {
		if t.order == min {
			s.squashRestart(t)
			s.res.MemViolationSquashes++
			return
		}
	}
	// The violating thread may already have been squashed this cycle.
}

// squashRestart discards a thread's work and every more speculative
// thread, then restarts the thread at its start position.
func (s *sim) squashRestart(u *thread) {
	idx := -1
	for i, t := range s.threads {
		if t == u {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	lastEnd := s.threads[len(s.threads)-1].end
	for _, v := range s.threads[idx+1:] {
		s.svcMem.Release(v.order)
		s.freeTUs = append(s.freeTUs, v.tu)
		s.retire(v)
		s.res.ThreadsKilled++
	}
	s.threads = s.threads[:idx+1]
	u.end = lastEnd

	s.svcMem.Release(u.order)
	u.pos = u.start
	u.state = running
	u.robHead, u.robCount = 0, 0
	u.fetchReady = s.now + 1
	for r := range u.regReady {
		u.regReady[r] = s.now + 1
	}
	u.written = 0
	u.consumed = 0
	u.validated = s.cfg.Predictor == Perfect || idx == 0 || s.threads[idx-1].state == finished
	u.restarts++
	u.aloneCycles = 0
	u.aloneCounted = false
	if st := s.pairStat(u.pair); st != nil {
		st.Squashes++
	}
}

// validateSuccessors marks threads whose predecessor has reached its
// end: all their input values are architected from then on, so the
// input checks can be skipped. (Value misprediction recovery itself is
// handled eagerly by the producer watches.)
func (s *sim) validateSuccessors() {
	for i := 1; i < len(s.threads); i++ {
		t := s.threads[i]
		if !t.validated && s.threads[i-1].state == finished {
			t.validated = true
		}
	}
}

// commitHead retires head threads once they have fetched their whole
// segment and drained their ROB. At most ThreadCommitsPerCycle threads
// commit per cycle: merging a thread unit's speculative state into
// architected state is a serialising operation.
func (s *sim) commitHead() {
	for n := 0; n < s.cfg.ThreadCommitsPerCycle && len(s.threads) > 0; n++ {
		h := s.threads[0]
		if h.state != finished || h.robCount != 0 {
			return
		}
		if h.pair != nil {
			size := h.end - h.start
			s.threadSizeSum += int64(size)
			s.res.ThreadsCommitted++
			if st := s.pairStat(h.pair); st != nil {
				st.Committed++
				st.CommitInstrs += int64(size)
			}
			if s.cfg.MinThreadSize > 0 && size < s.cfg.MinThreadSize {
				// Remove pairs whose threads are chronically small;
				// a single truncated thread (cut short by a later
				// spawn) is not evidence the pair is bad.
				st := s.pairRT(h.pair)
				st.smallObserved++
				if st.smallObserved >= minSizeOccurrences && !st.disabled {
					st.disabled = true
					st.disabledAt = s.now
					s.res.PairsRemovedMinSize++
				}
			}
		}
		s.svcMem.Release(h.order)
		s.freeTUs = append(s.freeTUs, h.tu)
		s.retire(h)
		s.threads = s.threads[1:]
		if len(s.threads) > 0 {
			s.threads[0].validated = true
		}
	}
}

// applyRemovalPolicy implements §4.2's dynamic spawning-pair removal:
// a thread executing alone (or, under the footnoted variant, with at
// most RemovalFewThreshold threads while others wait) for RemovalCycles
// counts one occurrence against its pair; after RemovalOccurrences the
// pair is removed.
func (s *sim) applyRemovalPolicy(active int) {
	if s.cfg.RemovalCycles <= 0 {
		return
	}
	threshold := s.cfg.RemovalFewThreshold
	if threshold < 1 {
		threshold = 1
	}
	if active < 1 || active > threshold || len(s.threads) <= active {
		return
	}
	var rt *thread
	for _, t := range s.threads {
		if t.state == running {
			rt = t
			break
		}
	}
	if rt == nil || rt.pair == nil || rt.aloneCounted {
		return
	}
	rt.aloneCycles++
	if rt.aloneCycles < s.cfg.RemovalCycles {
		return
	}
	rt.aloneCounted = true
	st := s.pairRT(rt.pair)
	st.aloneOccur++
	if st.aloneOccur >= s.cfg.RemovalOccurrences && !st.disabled {
		st.disabled = true
		st.disabledAt = s.now
		s.res.PairsRemovedAlone++
	}
}
