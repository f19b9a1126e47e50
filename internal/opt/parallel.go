package opt

// Wave-synchronous sharded A* — the deterministic engine behind
// ExactWith.
//
// The state space is hash-partitioned (HDA*-style) by the (blue,
// computed) words of a packed configuration: hashtab.ShardOf over the
// same domHash the dominance index keys on, so a candidate and every
// state that could dominate it — dominance requires identical (blue,
// computed) — land on the same shard, and shade canonicalization (which
// permutes only red words) never moves a state across shards. Each
// shard owns its table arena, distance/parent arrays, bucket queue and
// dominance index outright; nothing per-state is ever shared, so the
// workers run lock-free on their hot paths.
//
// Determinism across worker counts comes from bulk-synchronous layers
// instead of asynchronous HDA* racing:
//
//   - A *layer* is the global minimum f-value F over all shard queues.
//   - A layer runs as *waves*. In a wave every shard drains its own
//     bucket F and expands the drained states, routing candidates to
//     their owners (local ones apply immediately, remote ones batch
//     over bounded channels). A flush-marker barrier ends the wave:
//     each shard sends one marker to every shard after its batches, and
//     applies buffered batches only after all markers arrived — per-
//     sender channel FIFO makes the marker a completeness proof. States
//     relaxed *to* f == F during a wave form the next wave; an empty
//     layer advances F.
//   - The set of states expanded in each wave is a pure function of the
//     search graph (induction over waves: wave 0 of a layer is the
//     bucket-F contents at layer entry; relaxation outcomes are min
//     operations, so apply order within a wave cannot change any
//     distance, and a consistent heuristic rules out same-layer
//     re-improvement). Worker count only changes *where* states live,
//     never *which* states expand — so States, LowerBound, Cost and the
//     incumbent are byte-identical for every worker count. The one
//     exception: in one-shot mode the dead-state share of Pruned counts
//     improvement events, whose within-wave order is worker-dependent
//     (Result.Pruned documents this).
//   - The incumbent is a search-wide atomic min (offerIncumbent); a
//     layer whose F reaches the incumbent proves it optimal — the goal
//     check that a sequential A* does at pop time happens here at the
//     layer barrier, which is what keeps it worker-count-invariant.
//     Equal-cost goals offered by different shards in one wave resolve
//     to the lowest (shard, index) ref, not to whichever shard took the
//     lock first, so the witness is stable run to run.
//
// Termination detection is the coordinator's: workers only ever run one
// wave per command, so "all queues empty" and "incumbent ≤ F" are
// evaluated between waves on quiescent state (the command/report
// channel pair establishes the happens-before edges). Early stops
// (budget, cancellation) raise a flag that workers poll per expansion;
// an aborting wave still completes its flush/apply barrier, so no
// worker ever blocks on a peer that quit — and the budget is a single
// atomic counter, naturally "split across shards".
//
// Workers == 1 runs the identical coordinator loop with each wave
// executed in place (no goroutines, no channels, no batches) — that path
// is the sequential solver. The map-backed oracle of the equivalence
// tests runs through the same driver at every worker count, so the
// cross-implementation byte-for-byte comparison covers the wave
// semantics everywhere.
//
// Config.Mode == ModeAsync swaps this wave discipline for speculative
// asynchronous HDA* (async.go): same sharding, same routing batches and
// atomics, no barriers — exact optima, relaxed determinism.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hashtab"
	"repro/internal/pebble"
)

const (
	// maxWorkers caps resolved worker counts; beyond this, per-shard
	// queue scans and barrier fan-out dominate any conceivable gain on
	// ≤ 62-node instances.
	maxWorkers = 64
	// batchStates is the number of candidates a router batch carries
	// before it is shipped; bounds memory without per-candidate sends.
	batchStates = 64
	// inboxDepth bounds each shard's inbox channel. Senders facing a
	// full inbox drain their own inbox while waiting (see send), so the
	// bound throttles memory without deadlock.
	inboxDepth = 8
)

// batch is the router's unit of cross-shard transfer: up to batchStates
// candidate relaxations (packed words + g-cost, plus parent ref and
// move in witness mode), or a flush marker ending a sender's wave.
// Batches are pooled and reused across waves.
type batch struct {
	src   int32
	flush bool
	n     int
	words []uint64
	costs []int64
	froms []stateRef    // witness mode only
	moves []pebble.Move // witness mode only
}

// engine is the shared search-wide state: the shards, their inboxes,
// the atomic incumbent/budget/stop words, and the configuration.
type engine struct {
	in      *pebble.Instance
	ctx     context.Context
	cfg     Config
	nShards int
	limit   int64 // expansion budget; MaxInt64 when MaxStates is non-positive
	pooled  bool  // shards come from / return to the package arena pool

	shards []*solver
	inbox  []chan *batch
	pool   sync.Pool // *batch

	expandedTotal int64  // atomic: expansions across all shards
	incumbent     int64  // atomic: cheapest feasible cost seen, MaxInt64 if none
	stopFlag      uint32 // atomic: 0 = running, else uint32(Status) of the stop

	// Async-mode quiescence detection (see async.go): the number of
	// shards currently holding work, the number of shipped batches not
	// yet applied by their receiver, an epoch bumped on every idle→busy
	// transition, and the all-shards-quiescent flag.
	busy     int64  // atomic
	inflight int64  // atomic
	activity int64  // atomic
	doneFlag uint32 // atomic: 1 once quiescence was proven

	// leftover collects batches whose receiver may already have quit
	// (async early stop); the coordinator applies them after the workers
	// exit so the anytime LowerBound sees the complete frontier.
	leftMu   sync.Mutex
	leftover []*batch // mpp:guardedby leftMu

	incMu    sync.Mutex // guards incRef alongside the incumbent store
	incRef   stateRef   // mpp:guardedby incMu
	startRef stateRef   // owner/index of the seed state
}

func newEngine(ctx context.Context, in *pebble.Instance, cfg Config, newTab func() hashtab.Index, pooled bool) *engine {
	w := resolveWorkers(cfg.Workers)
	limit := int64(math.MaxInt64)
	if cfg.MaxStates > 0 {
		limit = int64(cfg.MaxStates)
	}
	e := &engine{in: in, ctx: ctx, cfg: cfg, nShards: w, limit: limit, pooled: pooled,
		incumbent: math.MaxInt64, incRef: stateRef{idx: -1}}
	e.pool.New = func() any { return new(batch) }
	e.shards = make([]*solver, w)
	e.inbox = make([]chan *batch, w)
	for i := range e.shards {
		s := acquireSolver(pooled)
		s.bind(e, int32(i), newTab, pooled)
		if w > 1 {
			e.inbox[i] = make(chan *batch, inboxDepth)
		}
		e.shards[i] = s
	}
	return e
}

// resolveWorkers maps Config.Workers to an effective shard count:
// non-positive means GOMAXPROCS, clamped to maxWorkers.
func resolveWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// ownerOf returns the shard owning a packed state: a pure function of
// its (blue, computed) words, shared with the dominance index's key.
//
//mpp:hotpath
func (e *engine) ownerOf(w []uint64) int {
	k := e.in.K
	return hashtab.ShardOf(domHash(w[k], w[k+1]), e.nShards)
}

func (e *engine) incumbentNow() int64 { return atomic.LoadInt64(&e.incumbent) }

// offerIncumbent lowers the search-wide incumbent to cost if it
// improves, remembering the goal state's ref for witness reconstruction.
// An equal-cost offer replaces the ref only when it is lower in (shard,
// index) order, so concurrent offers from one wave settle on the same
// ref whatever order they take the lock in. Cold path: goal relaxations
// are rare.
func (e *engine) offerIncumbent(cost int64, ref stateRef) {
	e.incMu.Lock()
	inc := atomic.LoadInt64(&e.incumbent)
	if cost < inc || (cost == inc && ref.less(e.incRef)) {
		atomic.StoreInt64(&e.incumbent, cost)
		e.incRef = ref
	}
	e.incMu.Unlock()
}

func (r stateRef) less(o stateRef) bool {
	return r.shard < o.shard || (r.shard == o.shard && r.idx < o.idx)
}

// requestStop records the first early-stop reason; later requests lose.
// StatusComplete (0) is never requested — 0 means "running".
func (e *engine) requestStop(st Status) {
	atomic.CompareAndSwapUint32(&e.stopFlag, 0, uint32(st))
}

//mpp:hotpath
func (e *engine) stopStatus() Status { return Status(atomic.LoadUint32(&e.stopFlag)) }

// countExpansion charges one expansion against the shared budget,
// raising the budget stop (and un-charging) when it would exceed it.
// Async-engine only: a per-expansion cut is scheduling-dependent, which
// the async mode's contract allows and the deterministic one does not —
// deterministic engines charge unconditionally (chargeExpansion) and
// stop at wave boundaries (budgetSpent).
//
//mpp:hotpath
func (s *solver) countExpansion() bool {
	n := atomic.AddInt64(&s.eng.expandedTotal, 1)
	if n > s.eng.limit {
		atomic.AddInt64(&s.eng.expandedTotal, -1)
		s.eng.requestStop(StatusBudget)
		return false
	}
	return true
}

// chargeExpansion records one deterministic-engine expansion. No limit
// check: the wave in progress always completes (its expansion set must
// stay a pure function of the search graph), and the coordinator stops
// the search at the next wave boundary once budgetSpent reports the
// budget gone.
//
//mpp:hotpath
func (s *solver) chargeExpansion() { atomic.AddInt64(&s.eng.expandedTotal, 1) }

// budgetSpent reports whether the expansion budget is exhausted —
// consulted between waves, never inside one.
func (e *engine) budgetSpent() bool { return atomic.LoadInt64(&e.expandedTotal) >= e.limit }

func (e *engine) statesTotal() int { return int(atomic.LoadInt64(&e.expandedTotal)) }

func (e *engine) prunedTotal() int {
	total := 0
	for _, s := range e.shards {
		total += s.pruned
	}
	return total
}

func (e *engine) reopenedTotal() int {
	total := 0
	for _, s := range e.shards {
		total += s.reopened
	}
	return total
}

// run seeds the start state and dispatches to the mode's driver.
func (e *engine) run() (*Result, error) {
	start := make([]uint64, stateWords(e.in.K))
	owner := 0
	if e.nShards > 1 {
		owner = e.ownerOf(start)
	}
	s := e.shards[owner]
	idx, fresh := s.insert(start, 0)
	e.startRef = stateRef{shard: int32(owner), idx: idx}
	s.enqueue(start, 0, idx, fresh)
	if e.cfg.Mode == ModeAsync {
		return e.runAsync()
	}
	return e.runParallel()
}

// runParallel is the deterministic driver. The coordinator (this
// goroutine) owns layer advancement, termination detection and result
// assembly; every shard runs one wave per round. A single shard runs its
// wave in place, with no goroutines or channels. With more, one
// goroutine per shard runs exactly one wave per command, and the command
// send and report receive bracket every wave, so all cross-shard reads
// below (queues, counters, parents) happen on quiescent memory.
//
//mpp:deterministic
func (e *engine) runParallel() (*Result, error) {
	var cmds []chan int64 // nil: waves run in place
	var reps chan struct{}
	if e.nShards > 1 {
		var wg sync.WaitGroup
		cmds = make([]chan int64, e.nShards)
		reps = make(chan struct{}, e.nShards)
		for i, s := range e.shards {
			cmds[i] = make(chan int64, 1)
			wg.Add(1)
			go func(s *solver, cmd <-chan int64, reps chan<- struct{}) {
				defer wg.Done()
				for f := range cmd {
					s.expandWave(f)
					s.flushAndMark()
					s.applyWave()
					s.settleWave()
					reps <- struct{}{}
				}
			}(s, cmds[i], reps)
		}
		defer func() {
			for _, c := range cmds {
				close(c)
			}
			wg.Wait()
		}()
	}
	for {
		f, ok := e.globalMinF()
		if !ok {
			return e.drained()
		}
		for { // waves of layer f
			if e.incumbentNow() <= f {
				return e.complete()
			}
			if e.ctx.Err() != nil {
				e.requestStop(StatusCanceled)
			}
			if st := e.stopStatus(); st != StatusComplete {
				return e.partialResult(st, f, false)
			}
			if e.budgetSpent() {
				return e.partialResult(StatusBudget, f, false)
			}
			if cmds == nil {
				s := e.shards[0]
				s.expandWave(f)
				s.settleWave()
			} else {
				for _, c := range cmds {
					c <- f
				}
				for range cmds {
					<-reps
				}
			}
			if st := e.stopStatus(); st != StatusComplete {
				return e.partialResult(st, f, true)
			}
			if !e.anyBucket(f) {
				break // no shard refilled bucket f; layer exhausted
			}
		}
	}
}

func (e *engine) globalMinF() (int64, bool) {
	min := int64(math.MaxInt64)
	any := false
	for _, s := range e.shards {
		if m, ok := s.bq.minF(); ok && m < min {
			min, any = m, true
		}
	}
	return min, any
}

func (e *engine) anyBucket(f int64) bool {
	for _, s := range e.shards {
		if s.bq.hasBucket(f) {
			return true
		}
	}
	return false
}

// expandWave drains this shard's bucket f and expands every live entry,
// routing candidates to their owners. Stale entries (superseded g) and
// already-expanded states are skipped without counting; goal entries
// are skipped too — goals are proven at the layer barrier, never
// expanded (and never settled, so dominance stays sound). An early-stop
// flag abandons the remaining worklist; the drained entries' f == F
// floor is restored by partialResult's midWave bound.
func (s *solver) expandWave(f int64) {
	e := s.eng
	s.worklist = s.bq.takeBucket(f, s.worklist)
	for _, ent := range s.worklist {
		if e.stopStatus() != StatusComplete {
			break
		}
		if ent.g > s.dist[ent.idx] || s.expandedMark[ent.idx] {
			continue
		}
		s.cur = append(s.cur[:0], s.tab.Key(int(ent.idx))...)
		if s.isGoal(s.cur) {
			continue
		}
		s.pops++
		if s.pops&ctxCheckMask == 0 && s.ctx.Err() != nil {
			e.requestStop(StatusCanceled)
			break
		}
		s.chargeExpansion()
		s.expandedMark[ent.idx] = true
		s.expanded++
		s.waveExp = append(s.waveExp, ent.idx)
		s.curIdx = ent.idx
		s.expand(ent.g)
	}
}

// settleWave registers the wave's expanded states in the dominance
// index. Settling at the wave boundary (not per expansion) is what
// makes the dominator set visible to any candidate a pure function of
// the wave number — identical for every worker count. Soundness is
// unaffected: a smaller dominator set only prunes less.
func (s *solver) settleWave() {
	if s.useDom {
		k := s.in.K
		for _, idx := range s.waveExp {
			w := s.tab.Key(int(idx))
			s.dom.add(w[k], w[k+1], idx)
		}
	}
	s.waveExp = s.waveExp[:0]
}

// route appends a candidate to the outgoing batch for shard dst,
// shipping the batch when full. Batches are pooled; the append targets
// pooled capacity, so steady-state routing does not allocate.
//
//mpp:hotpath
func (s *solver) route(dst int, cost int64, kind pebble.OpKind, choice []int) {
	b := s.out[dst]
	if b == nil {
		b = s.eng.getBatch(s.shard)
		s.out[dst] = b
	}
	b.words = append(b.words, s.cand...)
	b.costs = append(b.costs, cost)
	if s.witness {
		b.froms = append(b.froms, stateRef{shard: s.shard, idx: s.curIdx})
		b.moves = append(b.moves, moveOf(kind, choice))
	}
	b.n++
	if b.n >= batchStates {
		s.out[dst] = nil
		if s.async {
			s.asyncShip(dst, b)
		} else {
			s.send(dst, b)
		}
	}
}

// send delivers a batch to dst's inbox. When the inbox is full the
// sender drains its *own* inbox (buffering, not applying) instead of
// blocking — a blocked sender that keeps its inbox empty can never
// participate in a circular wait, so the bounded channels cannot
// deadlock.
func (s *solver) send(dst int, b *batch) {
	e := s.eng
	for {
		select {
		case e.inbox[dst] <- b:
			return
		default:
			if !s.drainOne() {
				runtime.Gosched()
			}
		}
	}
}

// drainOne buffers one pending inbox batch, if any.
func (s *solver) drainOne() bool {
	select {
	case b := <-s.eng.inbox[s.shard]:
		s.accept(b)
		return true
	default:
		return false
	}
}

// accept buffers a received batch by source shard, or counts a flush
// marker.
func (s *solver) accept(b *batch) {
	if b.flush {
		s.markers++
		s.eng.putBatch(b)
		return
	}
	s.incoming[b.src] = append(s.incoming[b.src], b)
}

// flushAndMark ships this shard's partial batches and then one flush
// marker to every shard (itself included — uniformity keeps the marker
// count a plain W). Channel FIFO per sender means a received marker
// proves all of that sender's wave batches arrived first.
func (s *solver) flushAndMark() {
	for dst, b := range s.out {
		if b != nil {
			s.out[dst] = nil
			if b.n > 0 {
				s.send(dst, b)
			} else {
				s.eng.putBatch(b)
			}
		}
	}
	for dst := 0; dst < s.eng.nShards; dst++ {
		m := s.eng.getBatch(s.shard)
		m.flush = true
		s.send(dst, m)
	}
}

// applyWave receives until every shard's flush marker arrived, then
// applies the buffered batches in source-shard order (and per-source
// FIFO). The order is fixed for reproducibility's sake, but no Result
// field depends on it: relaxation is a min, so any apply order yields
// the same distances, queue-bucket sets and incumbent.
func (s *solver) applyWave() {
	e := s.eng
	for s.markers < e.nShards {
		s.accept(<-e.inbox[s.shard])
	}
	s.markers = 0
	wpk := stateWords(s.in.K)
	for src := range s.incoming {
		for _, b := range s.incoming[src] {
			for i := 0; i < b.n; i++ {
				var from stateRef
				var mv pebble.Move
				if s.witness {
					from, mv = b.froms[i], b.moves[i]
				}
				s.applyRemote(b.words[i*wpk:(i+1)*wpk], b.costs[i], from, mv)
			}
			e.putBatch(b)
		}
		s.incoming[src] = s.incoming[src][:0]
	}
}

func (e *engine) getBatch(src int32) *batch {
	b := e.pool.Get().(*batch)
	b.src = src
	return b
}

func (e *engine) putBatch(b *batch) {
	b.n, b.flush = 0, false
	b.words = b.words[:0]
	b.costs = b.costs[:0]
	b.froms = b.froms[:0]
	b.moves = b.moves[:0]
	e.pool.Put(b)
}

// drained handles an exhausted frontier: with an incumbent the search
// is complete (every remaining path was pruned or dominated at ≥ the
// incumbent's cost); without one the instance had no pebbling, which
// valid instances cannot exhibit.
func (e *engine) drained() (*Result, error) {
	if e.incumbentNow() < math.MaxInt64 {
		return e.complete()
	}
	return nil, fmt.Errorf("opt: no pebbling found (unreachable for valid instances)")
}

// complete assembles the proven-optimal result: the layer barrier
// reached the incumbent, so Cost == Incumbent == LowerBound.
func (e *engine) complete() (*Result, error) {
	inc := e.incumbentNow()
	res := &Result{Cost: inc, States: e.statesTotal(), Status: StatusComplete,
		Incumbent: inc, LowerBound: inc,
		Pruned: e.prunedTotal(), ReExpanded: e.reopenedTotal(),
		HeuristicMode: e.cfg.Heuristic}
	if e.cfg.Witness {
		strat, err := e.reconstruct(e.witnessRef())
		if err != nil {
			return nil, err
		}
		res.Strategy = strat
	}
	return res, nil
}

// partialResult assembles the anytime result of an early stop: the
// incumbent (best feasible cost relaxed so far, -1 if none) and the
// admissible frontier lower bound — the minimum f-value over *live*
// queue entries across all shards, floored by the current layer's F
// when the stop interrupted a wave (drained-but-unexpanded worklist
// entries all have f == F). OPT is guaranteed to lie in [LowerBound,
// Incumbent]; the incumbent clamp applies only when an incumbent
// exists, so an incumbent-less partial reports the true frontier bound
// (≥ 0) instead of being dragged to the -1 sentinel.
func (e *engine) partialResult(st Status, f int64, midWave bool) (*Result, error) {
	states := e.statesTotal()
	res := &Result{Cost: -1, States: states, Status: st, Incumbent: -1,
		Pruned: e.prunedTotal(), ReExpanded: e.reopenedTotal(),
		HeuristicMode: e.cfg.Heuristic}
	lb := int64(math.MaxInt64)
	for _, s := range e.shards {
		if m, ok := s.liveMinF(); ok && m < lb {
			lb = m
		}
	}
	if midWave && f < lb {
		lb = f
	}
	if inc := e.incumbentNow(); inc < math.MaxInt64 {
		res.Incumbent, res.Cost = inc, inc
		if lb > inc {
			lb = inc
		}
		if e.cfg.Witness {
			if strat, err := e.reconstruct(e.witnessRef()); err == nil {
				res.Strategy = strat
			}
		}
	}
	if lb == math.MaxInt64 || lb < 0 {
		lb = 0 // nothing is known beyond non-negativity
	}
	res.LowerBound = lb

	if st == StatusBudget {
		return res, budgetErr(states)
	}
	return res, cancelErr(e.ctx, states)
}

// liveMinF scans this shard's queue for the smallest f-bucket holding a
// live entry — one whose g still matches the state's distance and whose
// state is unexpanded. Stale duplicates (superseded relaxations) are
// queue garbage whose presence depends on within-wave apply order, so
// the anytime LowerBound must not see them; filtering keeps the bound
// both admissible and worker-count-invariant. Cold path: runs once, at
// an early stop.
func (s *solver) liveMinF() (int64, bool) {
	for fi := s.bq.cur; fi < len(s.bq.buckets); fi++ {
		for _, ent := range s.bq.buckets[fi] {
			if ent.g == s.dist[ent.idx] && !s.expandedMark[ent.idx] {
				return int64(fi), true
			}
		}
	}
	return 0, false
}

// witnessRef reads the incumbent's state ref under the same lock its
// writers hold.
func (e *engine) witnessRef() stateRef {
	e.incMu.Lock()
	ref := e.incRef
	e.incMu.Unlock()
	return ref
}

// reconstruct walks parent refs from the goal back to the seed state,
// hopping shards as needed, and returns the move sequence. Only called
// after all workers stopped, so the cross-shard reads are quiescent.
func (e *engine) reconstruct(goal stateRef) (*pebble.Strategy, error) {
	if goal.idx < 0 {
		return nil, fmt.Errorf("opt: witness chain broken (internal error)")
	}
	limit := 0
	for _, s := range e.shards {
		limit += s.tab.Len()
	}
	var rev []pebble.Move
	for ref := goal; ref != e.startRef; {
		pe := e.shards[ref.shard].parent[ref.idx]
		if pe.from.idx < 0 {
			return nil, fmt.Errorf("opt: witness chain broken (internal error)")
		}
		rev = append(rev, pe.move)
		ref = pe.from
		if len(rev) > limit {
			return nil, fmt.Errorf("opt: witness chain too long (internal error)")
		}
	}
	st := &pebble.Strategy{}
	for i := len(rev) - 1; i >= 0; i-- {
		st.Append(rev[i])
	}
	return st, nil
}
