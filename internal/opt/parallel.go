package opt

// The exact search engine's shared half: sharding, cross-shard
// routing, the search-wide atomics and result assembly. The driver is
// runAsync (async.go). One engine does two things:
//
//   - On one shard — every ModeDeterministic run, whatever
//     Config.Workers says, and ModeAsync at Workers == 1 — it is a
//     sequential A*: pop the lowest f-bucket, LIFO inside the bucket,
//     settle each expanded state into the dominance index at once. No
//     goroutine, channel or atomic race is involved, so every Result
//     field, the witness Strategy included, is a pure function of
//     (instance, Heuristic, Dominance, Witness, MaxStates) unless a
//     deadline or cancel stops the search.
//   - On W > 1 shards (ModeAsync only) it is speculative HDA*: each
//     shard runs that same loop on its own partition and routes
//     candidates to their owners, and the search ends by quiescence.
//     The optimum stays exact; the statistics become timing-dependent.
//
// The state space is hash-partitioned by the (blue, computed) words of
// a packed configuration: hashtab.ShardOf over the same domHash the
// dominance index keys on, so a candidate and every state that could
// dominate it — dominance requires identical (blue, computed) — land on
// the same shard, and shade canonicalization (which permutes only red
// words) never moves a state across shards. Each shard owns its table
// arena, distance/parent arrays, bucket queue and dominance index
// outright; nothing per-state is ever shared, so the shards run
// lock-free on their hot paths.
//
// The incumbent is a search-wide atomic min (offerIncumbent), the
// expansion budget one atomic counter charged per expansion
// (countExpansion), and an early stop (budget, cancellation) one atomic
// flag every shard polls.

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
	// maxWorkers caps resolved worker counts; beyond this, routing
	// fan-out and quiescence polling dominate any conceivable gain on
	// ≤ 62-node instances.
	maxWorkers = 64
	// batchStates is the number of candidates a router batch carries
	// before it is shipped; bounds memory without per-candidate sends.
	batchStates = 64
	// inboxDepth bounds each shard's inbox channel. Senders facing a
	// full inbox drain their own inbox while waiting (see asyncShip), so
	// the bound throttles memory without deadlock.
	inboxDepth = 8
)

// batch is the router's unit of cross-shard transfer: up to batchStates
// candidate relaxations (packed words + g-cost, plus parent ref and
// move in witness mode). Batches are pooled and reused.
type batch struct {
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

	// Quiescence detection at W > 1 (see async.go): the number of
	// shards currently holding work, the number of shipped batches not
	// yet applied by their receiver, an epoch bumped on every idle→busy
	// transition, and the all-shards-quiescent flag.
	busy     int64  // atomic
	inflight int64  // atomic
	activity int64  // atomic
	doneFlag uint32 // atomic: 1 once quiescence was proven

	// leftover collects batches whose receiver may already have quit
	// (early stop); the coordinator applies them after the workers
	// exit so the anytime LowerBound sees the complete frontier.
	leftMu   sync.Mutex
	leftover []*batch // mpp:guardedby leftMu

	incMu    sync.Mutex // guards incRef alongside the incumbent store
	incRef   stateRef   // mpp:guardedby incMu
	startRef stateRef   // owner/index of the seed state
}

func newEngine(ctx context.Context, in *pebble.Instance, cfg Config, newTab func() hashtab.Index, pooled bool) *engine {
	w := 1
	if cfg.Mode == ModeAsync {
		w = resolveWorkers(cfg.Workers)
	}
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

// resolveWorkers maps Config.Workers to a ModeAsync shard count:
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
// index) order, so the witness does not depend on which of two
// equal-cost goals took the lock first. Cold path: goal relaxations are
// rare.
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
// raising the budget stop (and un-charging) when it would exceed it, so
// a budget stop has expanded exactly MaxStates states.
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

// run seeds the start state and runs the search.
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
	return e.runAsync()
}

// route appends a candidate to the outgoing batch for shard dst,
// shipping the batch when full. Batches are pooled; the append targets
// pooled capacity, so steady-state routing does not allocate.
//
//mpp:hotpath
func (s *solver) route(dst int, cost int64, kind pebble.OpKind, choice []int) {
	b := s.out[dst]
	if b == nil {
		b = s.eng.getBatch()
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
		s.asyncShip(dst, b)
	}
}

func (e *engine) getBatch() *batch { return e.pool.Get().(*batch) }

func (e *engine) putBatch(b *batch) {
	b.n = 0
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

// complete assembles the proven-optimal result: no open entry lies below
// the incumbent, so Cost == Incumbent == LowerBound.
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
// queue entries across all shards (a refused expansion re-pushes its
// entry, so the frontier is complete). OPT is guaranteed to lie in
// [LowerBound, Incumbent]; the incumbent clamp applies only when an
// incumbent exists, so an incumbent-less partial reports the true
// frontier bound (≥ 0) instead of being dragged to the -1 sentinel.
func (e *engine) partialResult(st Status) (*Result, error) {
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
// queue garbage that says nothing about the open frontier, so the
// anytime LowerBound must not see them. Cold path: runs once, at an
// early stop.
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
