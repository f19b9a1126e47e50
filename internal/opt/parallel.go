package opt

// The exact search engine's shared half: sharding, the mailboxes that
// carry candidates across shards, the search-wide atomics and result
// assembly. engine.run (async.go) runs the search. One engine does two
// things:
//
//   - On one shard — every ModeDeterministic run, whatever
//     Config.Workers says, and ModeAsync at Workers == 1 — it is a
//     sequential A*: pop the lowest f-bucket, deepest g first inside
//     the bucket, and expand. No goroutine, lock or atomic race is
//     involved, so every Result field, the witness Strategy included,
//     is a pure function of (instance, Heuristic, Dominance, Witness,
//     MaxStates) unless a deadline or cancel stops the search.
//   - On W > 1 shards (ModeAsync only) it is speculative HDA*: each
//     shard runs that same loop on its own partition and routes
//     candidates to their owners, and the search ends by quiescence.
//     The optimum stays exact; the statistics become timing-dependent.
//
// The state space is hash-partitioned by the (blue, computed) words of
// a packed configuration (hashtab.ShardOf over ownerHash), so shade
// canonicalization, which permutes only red words, never moves a state
// across shards. Each shard owns its table arena, distance/parent
// arrays and bucket queue outright; nothing per-state is ever shared,
// so the shards run lock-free on their hot paths.
//
// A candidate for another shard joins this shard's run for that owner;
// a full run (batchStates candidates), and every run when the shard
// parks or stops, is shipped: appended to the owner's mailbox under its
// lock. A ship never waits for the owner, so no shard can block
// another, and the owner takes its whole mailbox at once by swapping in
// an empty spare run. After the workers exit, the coordinator applies
// each mailbox to its own shard, so a stop loses no candidate.
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
	// batchStates is the number of candidates a per-destination run
	// gathers before it is shipped, so a mailbox lock is taken once per
	// batch rather than once per candidate.
	batchStates = 64
)

// run is a column-wise list of candidate relaxations: packed words
// (stateWords each) and g-costs, plus parent ref and move in witness
// mode. A shard gathers one per destination, and each mailbox holds one.
type run struct {
	words []uint64
	costs []int64
	froms []stateRef    // witness mode only
	moves []pebble.Move // witness mode only
}

// reset empties the run, keeping its capacity; the moves are cleared
// so a pooled run pins no Actions slices.
func (r *run) reset() {
	clear(r.moves)
	r.words, r.costs = r.words[:0], r.costs[:0]
	r.froms, r.moves = r.froms[:0], r.moves[:0]
}

// mailbox is a shard's inbox: senders append to run under mu and never
// wait on its owner, which takes the whole run at once by swapping in
// its empty spare. pending mirrors len(run.costs) so the owner polls it
// without the lock.
type mailbox struct {
	pending int64 // atomic
	mu      sync.Mutex
	run     run // mpp:guardedby mu
}

// engine is the shared search-wide state: the shards, their mailboxes,
// the atomic incumbent/budget/stop words, and the configuration.
type engine struct {
	in      *pebble.Instance
	ctx     context.Context
	cfg     Config
	nShards int
	limit   int64 // expansion budget; MaxInt64 when MaxStates is non-positive
	pooled  bool  // shards come from / return to the package arena pool

	shards []*solver
	mail   []mailbox // one per shard

	expandedTotal int64  // atomic: expansions across all shards
	incumbent     int64  // atomic: cheapest feasible cost seen, MaxInt64 if none
	stopFlag      uint32 // atomic: 0 = running, else uint32(Status) of the stop

	// Quiescence detection at W > 1 (see async.go): the number of
	// shards currently holding work, the number of shipped candidates
	// not yet applied by their owner, an epoch bumped on every idle→busy
	// transition, and the all-shards-quiescent flag.
	busy     int64  // atomic
	inflight int64  // atomic
	activity int64  // atomic
	doneFlag uint32 // atomic: 1 once quiescence was proven

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
	e.shards = make([]*solver, w)
	e.mail = make([]mailbox, w)
	for i := range e.shards {
		s := acquireSolver(pooled)
		s.bind(e, int32(i), newTab, pooled)
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
// its (blue, computed) words.
//
//mpp:hotpath
func (e *engine) ownerOf(w []uint64) int {
	k := e.in.K
	return hashtab.ShardOf(ownerHash(w[k], w[k+1]), e.nShards)
}

// ownerHash mixes the two ownership words (splitmix64-style finalizer).
//
//mpp:hotpath
func ownerHash(blue, computed uint64) uint64 {
	x := blue ^ 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x ^= computed
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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

// route appends a candidate to this shard's run for shard dst,
// shipping the run once it holds batchStates candidates. The runs keep
// their capacity, so steady-state routing does not allocate.
//
//mpp:hotpath
func (s *solver) route(dst int, cost int64, kind pebble.OpKind, choice []int) {
	r := &s.out[dst]
	r.words = append(r.words, s.cand...)
	r.costs = append(r.costs, cost)
	if s.cfg.Witness {
		r.froms = append(r.froms, stateRef{shard: s.shard, idx: s.curIdx})
		r.moves = append(r.moves, moveOf(kind, choice))
	}
	if len(r.costs) >= batchStates {
		s.ship(dst)
	}
}

// ship appends this shard's run for dst to dst's mailbox. inflight
// grows before the candidates become visible (the ordering rule in
// async.go).
func (s *solver) ship(dst int) {
	r := &s.out[dst]
	n := int64(len(r.costs))
	mb := &s.eng.mail[dst]
	atomic.AddInt64(&s.eng.inflight, n)
	mb.mu.Lock()
	mb.run.words = append(mb.run.words, r.words...)
	mb.run.costs = append(mb.run.costs, r.costs...)
	mb.run.froms = append(mb.run.froms, r.froms...)
	mb.run.moves = append(mb.run.moves, r.moves...)
	atomic.AddInt64(&mb.pending, n)
	mb.mu.Unlock()
	r.reset()
}

// flush ships every non-empty outgoing run.
func (s *solver) flush() {
	for dst := range s.out {
		if len(s.out[dst].costs) > 0 {
			s.ship(dst)
		}
	}
}

// take swaps this shard's mailbox run for its empty spare, reporting
// whether it took any candidate. Only the owner takes, so a pending
// count it reads cannot shrink before its lock.
//
//mpp:hotpath
func (s *solver) take() bool {
	mb := &s.eng.mail[s.shard]
	if atomic.LoadInt64(&mb.pending) == 0 {
		return false
	}
	mb.mu.Lock()
	mb.run, s.spare = s.spare, mb.run
	atomic.StoreInt64(&mb.pending, 0)
	mb.mu.Unlock()
	return true
}

// apply relaxes the candidates take moved into the spare run, then
// retires their inflight count. The decrement comes last: until the
// candidates are queued, the quiescence check must still see them.
//
//mpp:hotpath
func (s *solver) apply() {
	r := &s.spare
	wpk := stateWords(s.in.K)
	for i, cost := range r.costs {
		var from stateRef
		var mv pebble.Move
		if s.cfg.Witness {
			from, mv = r.froms[i], r.moves[i]
		}
		s.applyRemote(r.words[i*wpk:(i+1)*wpk], cost, from, mv)
	}
	n := int64(len(r.costs))
	r.reset()
	atomic.AddInt64(&s.eng.inflight, -n)
}

// drained handles an exhausted frontier: with an incumbent the search
// is complete (every remaining path costs at least the incumbent);
// without one the instance had no pebbling, which valid instances
// cannot exhibit.
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
	return s.bq.minFWhere(func(ent bqEntry) bool {
		return ent.g == s.dist[ent.idx] && !s.expandedMark[ent.idx]
	})
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
//
// A recorded move names shade positions in its parent's canonical red
// words, so the chain is replayed forward from the empty seed: red holds
// the canonical red words and proc[i] the processor at position i. Each
// action runs on its position's processor; after the move the words are
// re-sorted the way canonicalizeRed sorts them, carrying proc along.
// Tied words hold identical red sets, so a tie may break either way.
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
	k := e.in.K
	red := make([]uint64, k)
	proc := make([]int32, k)
	for p := range proc {
		proc[p] = int32(p)
	}
	st := &pebble.Strategy{}
	var acts []pebble.Action
	for i := len(rev) - 1; i >= 0; i-- {
		m := rev[i]
		acts = acts[:0]
		for _, a := range m.Actions {
			switch m.Kind {
			case pebble.OpCompute, pebble.OpRead:
				red[a.Proc] |= 1 << uint(a.Node)
			case pebble.OpDelete:
				red[a.Proc] &^= 1 << uint(a.Node)
			}
			acts = append(acts, pebble.Action{Proc: proc[a.Proc], Node: a.Node})
		}
		st.Append(pebble.Move{Kind: m.Kind, Actions: acts})
		for x := 1; x < k; x++ {
			for y := x; y > 0 && red[y] < red[y-1]; y-- {
				red[y], red[y-1] = red[y-1], red[y]
				proc[y], proc[y-1] = proc[y-1], proc[y]
			}
		}
	}
	return st, nil
}
