// Package opt contains exact solvers for small pebbling instances, one
// call per question:
//
//   - ExactWith: uniform-cost search over the configuration space,
//     returning the true optimum cost OPT of an MPP (or SPP) instance.
//     Exponential; intended for instances of ≤ ~12 nodes, where it serves
//     as ground truth for the heuristics and the gadget experiments.
//     SolveCached is the same call through a content-addressable cache.
//   - ZeroIO: a specialized decision procedure for "does a one-shot SPP
//     pebbling of I/O cost 0 exist?" — the question made NP-hard by
//     Theorem 2. It exploits that cost-0 one-shot pebblings are fully
//     described by a compute permutation with forced deletions.
//     ZeroIOBig is the bitset decider for DAGs of any size.
//
// The search core is allocation-free on the hot path: states are packed
// uint64 words stored directly in an open-addressing hashtab.Table (the
// arena doubles as the state store), the frontier is a monotone bucket
// queue, and candidate expansion reuses scratch buffers — a rejected
// candidate touches the heap zero times. The tests run the same search
// against the map-backed hashtab.Ref and lock the results byte-for-byte.
//
// The search is organized as a wave-synchronous A* over f-layers (see
// parallel.go): with Config.Workers > 1 the state space is hash-sharded
// across workers HDA*-style, and the layer barriers make the results
// byte-identical to the single-worker run regardless of worker count.
// Config.Mode = ModeAsync swaps the layer barriers for speculative
// asynchronous HDA* (see async.go): the optimum stays exact, but
// expansion counts and traces become timing-dependent.
//
// Solver arenas (table, queue, dominance index, scratch) are recycled
// through a package-level pool across searches (see pool.go), so
// callers solving many instances back to back reuse them automatically.
package opt

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/dag"
	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// Result is the outcome of an exact search.
//
// The search is anytime: when it stops early (state budget, deadline, or
// cancellation — Status reports which) the Result still carries the best
// incumbent found so far and an admissible lower bound taken at the
// frontier, so a blown budget degrades to a cost interval instead of
// discarding everything the search learned.
type Result struct {
	// Cost is the proven optimum when Status is StatusComplete; on a
	// partial result it equals Incumbent (-1 if no feasible pebbling was
	// seen before the stop).
	Cost int64
	// States counts charged expansions summed across shards: states
	// popped live from a frontier and expanded (each charged once against
	// Config.MaxStates). The meaning is identical in every engine —
	// inline, deterministic-sharded and async; in ModeDeterministic the
	// count is additionally invariant across worker counts, while in
	// ModeAsync it is timing-dependent (a state re-expanded after a
	// better-g reopening is charged again — see ReExpanded).
	States int

	// Status reports whether the search completed or why it stopped.
	Status Status
	// Incumbent is the cheapest feasible pebbling cost discovered, -1 if
	// none; equal to Cost on a complete run. OPT always lies in
	// [LowerBound, Incumbent].
	Incumbent int64
	// LowerBound is an admissible lower bound on the optimum: the proven
	// optimum on a complete run, otherwise the minimum f-value left on
	// the open frontier (g-cost plus the configured admissible
	// heuristic). When an incumbent exists it is clamped to never exceed
	// Incumbent; an incumbent-less partial result reports the frontier
	// bound unclamped — always ≥ 0, never dragged toward Incumbent's -1
	// sentinel.
	LowerBound int64

	// Strategy is the reconstructed move sequence (present when
	// Config.Witness is set, nil otherwise). On a partial result it
	// replays to the incumbent cost, not the optimum.
	Strategy *pebble.Strategy

	// Pruned counts candidates the search discarded instead of queuing:
	// states strictly dominated by a settled state (one count per
	// dominance rejection) plus, in one-shot mode, distinct states the
	// heuristic proved dead (counted once per dead state, on first
	// insertion — dead-ness is a pure function of the state, so this
	// share is order-independent). Zero when dominance is off and the
	// instance is not one-shot. The meaning is identical in every engine;
	// in ModeDeterministic the value is invariant across worker counts,
	// in ModeAsync it is timing-dependent like States.
	Pruned int
	// ReExpanded counts ModeAsync re-expansions: a speculatively expanded
	// state reopened by a later, cheaper path and expanded again (each
	// such expansion is also in States). Always 0 in ModeDeterministic —
	// the layer barriers make premature expansion impossible.
	ReExpanded int
	// HeuristicMode records which heuristic stack guided the search.
	HeuristicMode HeuristicMode
}

// Config selects the search variant. The zero value is a valid
// no-frills configuration (max heuristic, no dominance, no witness, no
// state budget, GOMAXPROCS workers); most callers want DefaultConfig.
type Config struct {
	// MaxStates bounds the number of distinct states expanded (summed
	// across workers); exceeding it stops the search with a partial
	// Result and ErrBudget. Non-positive means unbounded. Deterministic
	// engines check the budget at wave boundaries and let the stopping
	// wave finish — States may overshoot MaxStates by that wave's tail,
	// which is what keeps every partial-Result field a pure function of
	// the search graph (a mid-wave cut would expand a scheduling-
	// dependent subset). ModeAsync promises no such invariance and
	// enforces the cap exactly, per expansion.
	MaxStates int
	// Heuristic selects the admissible bound stack (zero value:
	// HeuristicMax, the strongest).
	Heuristic HeuristicMode
	// Dominance enables pruning of strictly dominated candidates. It is
	// ignored in witness mode, where shade canonicalization is off and
	// the per-position subset test would be unsound.
	Dominance bool
	// Witness requests reconstruction of one optimal move sequence.
	Witness bool
	// Workers is the number of search workers the state space is
	// hash-sharded across. 0 means GOMAXPROCS; 1 runs the engine inline
	// with no goroutines or channels. In ModeDeterministic every Result
	// field except Strategy is byte-identical for every worker count
	// (States and Pruned included). The witness Strategy is optimal and
	// stable run to run at a fixed worker count, but which of the equally
	// cheap strategies it is depends on the worker count: parent ties
	// resolve by apply order.
	Workers int
	// Mode selects the parallel engine's coordination discipline:
	// ModeDeterministic (the zero value) runs wave-synchronous layers
	// with worker-count-invariant results; ModeAsync drops the barriers
	// for raw throughput — the returned Cost/Status stay exact, but
	// States/Pruned/ReExpanded and the witness trace become
	// timing-dependent. See async.go.
	Mode Mode
}

// DefaultConfig is the fastest sound setup: the max heuristic with
// dominance pruning. Workers is left 0 (GOMAXPROCS), so it runs the
// sharded parallel search; set Workers to 1 for the single-worker
// engine.
func DefaultConfig(maxStates int) Config {
	return Config{MaxStates: maxStates, Heuristic: HeuristicMax, Dominance: true}
}

// ExactWith computes the exact optimum pebbling cost of the instance by
// A* search over configurations under cfg. With DefaultConfig that is
// the max of the compute-floor and I/O-aware admissible heuristics (see
// heuristic.go) plus dominance pruning (see dominate.go); processor
// shades are canonicalized unless cfg.Witness asks for a move sequence,
// so symmetric configurations collapse. cfg.MaxStates bounds the number
// of states expanded; exceeding it returns a partial Result plus an
// error wrapping ErrBudget. The search polls ctx and likewise stops with
// a partial Result and an error wrapping ctx.Err() when it is canceled
// or its deadline passes (see Result for the anytime contract).
//
// ExactWith handles every Params combination: multiprocessor parallel
// moves, zero compute costs (classic SPP, where Dijkstra's
// non-negative-edge requirement still holds), and one-shot mode (the
// computed set joins the search state).
func ExactWith(ctx context.Context, in *pebble.Instance, cfg Config) (*Result, error) {
	return exact(ctx, in, cfg, nil)
}

// exact runs the search. newTab overrides the per-shard state table
// constructor (tests pass the map-backed hashtab.Ref oracle); nil
// selects the open-addressing table. A constructor rather than an
// instance: the sharded engine needs one single-owner table per worker.
//
// Runs with the default table recycle their solver arenas through the
// package pool (see pool.go); oracle runs stay pool-free so a Ref never
// masquerades as a reusable Table.
func exact(ctx context.Context, in *pebble.Instance, cfg Config, newTab func() hashtab.Index) (*Result, error) {
	n := in.Graph.N()
	if n == 0 {
		res := &Result{Cost: 0, Status: StatusComplete, HeuristicMode: cfg.Heuristic}
		if cfg.Witness {
			res.Strategy = &pebble.Strategy{}
		}
		return res, nil
	}
	if n > 62 {
		return nil, fmt.Errorf("opt: ExactWith supports at most 62 nodes, got %d", n)
	}
	pooled := newTab == nil
	if pooled {
		newTab = func() hashtab.Index { return hashtab.New(stateWords(in.K), 1024) }
	}
	eng := newEngine(ctx, in, cfg, newTab, pooled)
	res, err := eng.run()
	eng.release()
	return res, err
}

// stateRef names a state across shards: the shard that owns it plus its
// dense index in that shard's table. idx < 0 is the "none" sentinel.
type stateRef struct {
	shard int32
	idx   int32
}

// parentEdge records how a state was first reached at its best cost, for
// witness reconstruction. The parent may live on a different shard.
type parentEdge struct {
	from stateRef
	move pebble.Move
}

// solver is one shard's worker state: it owns a contiguous partition of
// the hash-sharded state space — its own table arena, distance and
// parent arrays, bucket queue and dominance index — and exchanges only
// candidate batches (see parallel.go) with other shards. With one
// worker there is exactly one solver holding the whole space.
type solver struct {
	in      *pebble.Instance
	ctx     context.Context
	n       int
	cfg     Config
	witness bool // == cfg.Witness, hoisted for the hot path
	useDom  bool // dominance pruning active (cfg.Dominance && !witness)
	async   bool // == (cfg.Mode == ModeAsync), hoisted for the hot path

	eng   *engine // shared search-wide state (incumbent, budget, routing)
	shard int32   // this solver's shard id

	predMask []uint64 // predecessor bitmask per node
	sinkMask uint64
	allMask  uint64       // low n bits set
	kr       int          // k·r, total red capacity
	topo     []dag.NodeID // precomputed topological order (shared with Graph)
	chainDP  []int32      // longest-uncomputed-chain DP scratch

	tab    hashtab.Index // state identity → dense index (this shard only)
	dist   []int64       // best g-cost per state index
	parent []parentEdge  // per state index; witness mode only
	bq     bucketQueue

	// expandedMark marks state indices this shard has expanded — the
	// within-layer dedupe (a state reappearing in a later wave of the
	// same f-layer via an equal-cost path must not expand twice) and the
	// settled-set definition for dominance pruning. In async mode the
	// mark is cleared again when a cheaper path reopens the state.
	expandedMark []bool
	dom          *domIndex
	domVisits    int // dominance records visited by dominated (tests pin it)
	pruned       int
	expanded     int // states expanded by this shard
	reopened     int // async: expanded states reopened by a better g
	pops         int // worklist entries examined, for ctx-poll throttling

	// Wave bookkeeping: the current wave's drained bucket contents and
	// the state indices expanded during it (settled into the dominance
	// index at the wave boundary — see parallel.go for why).
	worklist []bqEntry
	waveExp  []int32

	// Cross-shard routing state (Workers > 1 only): per-destination
	// outgoing batch under construction, per-source received batches for
	// the current wave, and the count of flush markers received.
	out      []*batch
	incoming [][]*batch
	markers  int

	curIdx int32 // index of the state being expanded

	// Scratch buffers, reused across the whole search so that expanding a
	// state and rejecting all its candidates performs zero allocations.
	cur                              []uint64 // copy of the expanding state
	cand                             []uint64 // candidate successor under construction
	choice                           []int    // per-processor pick inside product enumeration
	delChoice                        []int    // single-action choice vector for deletes
	computeOpts, readOpts, writeOpts [][]int
}

// Packed state layout accessors: words[0..k-1] red, words[k] blue,
// words[k+1] computed.
func (s *solver) blueWord(w []uint64) uint64     { return w[s.in.K] }
func (s *solver) computedWord(w []uint64) uint64 { return w[s.in.K+1] }

// initScratch sizes the per-shard scratch buffers, reusing capacity left
// by a previous search when the solver comes from the arena pool (see
// pool.go). Called once per search, before any expansion. Stale scratch
// content is harmless: every buffer is fully (re)written before it is
// read — cur/cand by copy/append, choice by productRec, delChoice below,
// and the option lists are always truncated to [:0] first.
func (s *solver) initScratch() {
	k := s.in.K
	w := stateWords(k)
	s.cur = resizeU64(s.cur, w)
	s.cand = resizeU64(s.cand, w)
	s.choice = resizeInts(s.choice, k)
	s.delChoice = resizeInts(s.delChoice, k)
	for p := range s.delChoice {
		s.delChoice[p] = -1
	}
	s.computeOpts = resizeOptLists(s.computeOpts, k)
	s.readOpts = resizeOptLists(s.readOpts, k)
	s.writeOpts = resizeOptLists(s.writeOpts, k)
}

// resizeU64 returns a slice of length n, reusing b's capacity if enough.
func resizeU64(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

func resizeInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// resizeOptLists keeps the inner option slices (and their capacities)
// alive across searches; entries are always reset to [:0] before use.
func resizeOptLists(b [][]int, n int) [][]int {
	if cap(b) < n {
		return make([][]int, n)
	}
	return b[:n]
}

//mpp:hotpath
func (s *solver) isGoal(w []uint64) bool {
	pebbled := s.blueWord(w)
	for _, r := range w[:s.in.K] {
		pebbled |= r
	}
	return s.sinkMask&^pebbled == 0
}

// offer routes the candidate state in s.cand at the given g-cost to its
// owning shard: applied immediately when this shard owns it, batched
// onto the owner's inbox otherwise. The move is materialized from
// (kind, choice) only in witness mode — lazily (only when the candidate
// improves) on the local path; eagerly when crossing shards, since the
// scratch choice vector cannot travel.
//
//mpp:hotpath
func (s *solver) offer(cost int64, kind pebble.OpKind, choice []int) {
	if !s.witness {
		// Shade symmetry collapse is only sound when no move sequence
		// must be reconstructed (relabeling shades would desynchronize
		// the recorded moves' processor indices). Ownership hashes only
		// the (blue, computed) words, so canonicalizing first does not
		// move the candidate across shards.
		canonicalizeRed(s.cand[:s.in.K])
	}
	if s.eng.nShards > 1 {
		if dst := s.eng.ownerOf(s.cand); dst != int(s.shard) {
			s.route(dst, cost, kind, choice)
			return
		}
	}
	if s.useDom && s.dominated(s.cand, cost) {
		s.pruned++
		return
	}
	idx, fresh := s.insert(s.cand, cost)
	if idx < 0 {
		return
	}
	if s.witness {
		s.parent[idx] = parentEdge{from: stateRef{shard: s.shard, idx: s.curIdx}, move: moveOf(kind, choice)}
	}
	s.enqueue(s.cand, cost, idx, fresh)
}

// applyRemote applies one candidate received from another shard — the
// deferred half of offer, run during the wave's apply phase. The words
// slice aliases the batch buffer; Insert copies it.
//
//mpp:hotpath
func (s *solver) applyRemote(w []uint64, cost int64, from stateRef, move pebble.Move) {
	if s.useDom && s.dominated(w, cost) {
		s.pruned++
		return
	}
	idx, fresh := s.insert(w, cost)
	if idx < 0 {
		return
	}
	if s.witness {
		s.parent[idx] = parentEdge{from: from, move: move}
	}
	s.enqueue(w, cost, idx, fresh)
}

// insert interns the candidate words and relaxes its distance, growing
// the per-state arrays on first sight. Returns the state index and
// whether the state was fresh (first time seen), or idx -1 when the
// candidate does not improve the known distance (the rejected path
// allocates nothing — Insert on a present key is allocation-free).
//
// In async mode an improving relaxation of an already-expanded state
// reopens it (the re-expansion rule, see async.go): the expanded mark is
// cleared so the state expands again with the better g. Impossible in
// deterministic mode, where layer barriers guarantee a state expands
// only at its final distance.
//
//mpp:hotpath
func (s *solver) insert(w []uint64, cost int64) (int32, bool) {
	idx, existed := s.tab.Insert(w)
	if existed {
		if s.dist[idx] <= cost {
			return -1, false
		}
		s.dist[idx] = cost
		if s.async && s.expandedMark[idx] {
			s.expandedMark[idx] = false
			s.reopened++
		}
		return int32(idx), false
	}
	s.dist = append(s.dist, cost)
	s.expandedMark = append(s.expandedMark, false)
	if s.witness {
		s.parent = append(s.parent, parentEdge{from: stateRef{idx: -1}})
	}
	return int32(idx), true
}

// enqueue finishes an improving relaxation: incumbent bookkeeping, the
// dead-state drop, and the frontier push.
//
//mpp:hotpath
func (s *solver) enqueue(w []uint64, cost int64, idx int32, fresh bool) {
	// Anytime incumbent: any goal state relaxed at cost c witnesses a
	// feasible pebbling of cost c, even though optimality is only proven
	// at the layer barrier. The incumbent is a search-wide atomic min,
	// so every worker count converges to the same value. Equal-cost goals
	// are offered too: offerIncumbent breaks the tie deterministically.
	if cost <= s.eng.incumbentNow() && s.isGoal(w) {
		s.eng.offerIncumbent(cost, stateRef{shard: s.shard, idx: idx})
	}
	h := s.h(w)
	if h < 0 {
		// Dead state (one-shot): provably cannot reach the goal. It
		// stays in the table (so re-derivations are cheap) but is never
		// queued. Counted into Pruned alongside dominance drops — but
		// only on first insertion: dead-ness is a pure function of the
		// state words, so counting per state (not per improvement event)
		// keeps Pruned order-independent and hence worker-count-
		// invariant in deterministic mode.
		if fresh {
			s.pruned++
		}
		return
	}
	s.bq.push(cost+h, idx, cost)
}

// expand generates every successor state of s.cur. Per-processor option
// lists are combined into parallel moves; since a parallel move costs the
// same as a single action of the same kind, one might hope only maximal
// combinations matter, but adding an extra legal action occupies memory,
// so the full product of per-processor choices is explored.
//
//mpp:hotpath
func (s *solver) expand(cost int64) {
	k := s.in.K
	gCost := int64(s.in.G)
	cCost := int64(s.in.ComputeCost)

	// Per-processor candidate actions for each move kind. -1 encodes
	// "idle" (processor not in the shaded selection).
	blue := s.blueWord(s.cur)
	computed := s.computedWord(s.cur)
	for p := 0; p < k; p++ {
		co := s.computeOpts[p][:0]
		ro := s.readOpts[p][:0]
		wo := s.writeOpts[p][:0]
		red := s.cur[p]
		for v := 0; v < s.n; v++ {
			bit := uint64(1) << uint(v)
			// Compute v on p: all preds red on p, v not red on p, memory ok.
			if s.predMask[v]&^red == 0 && red&bit == 0 {
				if !s.in.OneShot || computed&bit == 0 {
					co = append(co, v)
				}
			}
			// Read v into p: v blue, not already red on p.
			if blue&bit != 0 && red&bit == 0 {
				ro = append(ro, v)
			}
			// Write v from p: v red on p, not already blue.
			if red&bit != 0 && blue&bit == 0 {
				wo = append(wo, v)
			}
		}
		s.computeOpts[p], s.readOpts[p], s.writeOpts[p] = co, ro, wo
	}

	// Delete edges (cost 0): remove one red pebble. Blue deletions are
	// never beneficial (slow memory is unlimited), so they are skipped.
	// Under dominance pruning, deletes are additionally restricted to
	// *full* processors (lazy deletion): a move adds at most one red
	// pebble per processor, so one free slot is always enough, and any
	// pebbling reorders at equal cost into this normal form — surplus
	// pebbles never invalidate later moves and only help the goal.
	for p := 0; p < k; p++ {
		reds := s.cur[p]
		if s.useDom && popcount(reds) < s.in.R {
			continue
		}
		for reds != 0 {
			v := trailingZeros(reds)
			reds &= reds - 1
			copy(s.cand, s.cur)
			s.cand[p] &^= 1 << uint(v)
			s.delChoice[p] = v
			s.offer(cost, pebble.OpDelete, s.delChoice)
			s.delChoice[p] = -1
		}
	}

	s.product(s.computeOpts, pebble.OpCompute, cost+cCost)
	s.product(s.readOpts, pebble.OpRead, cost+gCost)
	s.product(s.writeOpts, pebble.OpWrite, cost+gCost)
}

// applyChoice builds the successor for s.choice under the given move kind
// into s.cand and offers it if legal.
//
//mpp:hotpath
func (s *solver) applyChoice(kind pebble.OpKind, newCost int64) {
	copy(s.cand, s.cur)
	switch kind {
	case pebble.OpCompute:
		var seen uint64
		for p, v := range s.choice {
			if v < 0 {
				continue
			}
			bit := uint64(1) << uint(v)
			if s.in.OneShot && seen&bit != 0 {
				return // two processors computing v at once would double-apply R3
			}
			seen |= bit
			s.cand[p] |= bit
			s.cand[s.in.K+1] |= bit
			if popcount(s.cand[p]) > s.in.R {
				return
			}
		}
	case pebble.OpRead:
		for p, v := range s.choice {
			if v < 0 {
				continue
			}
			s.cand[p] |= 1 << uint(v)
			if popcount(s.cand[p]) > s.in.R {
				return
			}
		}
	case pebble.OpWrite:
		for _, v := range s.choice {
			if v < 0 {
				continue
			}
			s.cand[s.in.K] |= 1 << uint(v)
		}
	}
	s.offer(newCost, kind, s.choice)
}

// moveOf converts a per-processor choice vector (-1 = idle) into a Move.
func moveOf(kind pebble.OpKind, choice []int) pebble.Move {
	m := pebble.Move{Kind: kind}
	for p, v := range choice {
		if v >= 0 {
			m.Actions = append(m.Actions, pebble.At(p, dag.NodeID(v)))
		}
	}
	return m
}

// product enumerates every non-empty combination of per-processor
// choices (-1 = idle) into s.choice and applies each. One-shot duplicates
// of the same node on different processors in a single compute move are
// rejected in applyChoice.
//
//mpp:hotpath
func (s *solver) product(opts [][]int, kind pebble.OpKind, newCost int64) {
	s.productRec(opts, kind, newCost, 0, false)
}

//mpp:hotpath
func (s *solver) productRec(opts [][]int, kind pebble.OpKind, newCost int64, p int, any bool) {
	if p == len(opts) {
		if any {
			s.applyChoice(kind, newCost)
		}
		return
	}
	s.choice[p] = -1
	s.productRec(opts, kind, newCost, p+1, any)
	for _, v := range opts[p] {
		s.choice[p] = v
		s.productRec(opts, kind, newCost, p+1, true)
	}
	s.choice[p] = -1
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
