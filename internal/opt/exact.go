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
//     described by a compute permutation with forced deletions, and
//     decides it for DAGs of any size.
//
// The search core is allocation-free on the hot path: states are packed
// uint64 words stored directly in an open-addressing hashtab.Table (the
// arena doubles as the state store), the frontier is a monotone bucket
// queue, and candidate expansion reuses scratch buffers — a rejected
// candidate touches the heap zero times. The tests run the same search
// against the map-backed hashtab.Ref and lock the results byte-for-byte.
//
// One engine runs every exact search (see parallel.go and async.go). In
// ModeDeterministic, the default, it runs on one shard: a sequential A*
// whose Result — witness included — is a pure function of the instance
// and the result-affecting config, unless a deadline or cancel stops
// it. A witness request runs that same search and only adds parent
// edges, from which the move sequence is rebuilt at the end. ModeAsync
// hash-shards the state space across Config.Workers goroutines,
// HDA*-style: the optimum stays exact, but expansion counts and traces
// become timing-dependent.
//
// Solver arenas (table, queue, per-state arrays, scratch) are recycled
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
	// Config.MaxStates; a budget stop has States == MaxStates). On one
	// shard the count is deterministic; with ModeAsync at Workers > 1 it
	// is timing-dependent (a state re-expanded after a better-g reopening
	// is charged again — see ReExpanded).
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

	// Pruned counts the distinct states a one-shot search interned but
	// never queued because the heuristic proved them dead, once per dead
	// state, on first insertion: dead-ness is a pure function of the
	// state, so the count does not depend on the path that reached it.
	// Zero when the instance is not one-shot. Deterministic on one
	// shard, timing-dependent like States with ModeAsync at Workers > 1.
	Pruned int
	// ReExpanded counts re-expansions: an expanded state reopened by a
	// later, cheaper path and expanded again (each such expansion is also
	// in States). Only speculation across shards causes them: on one
	// shard the consistent heuristic expands every state at its final
	// distance, so the count is 0.
	ReExpanded int
	// HeuristicMode records which heuristic stack guided the search.
	HeuristicMode HeuristicMode
}

// Config selects the search variant. The zero value is a valid
// no-frills configuration (max heuristic, deletes on every processor,
// no witness, no state budget, deterministic); most callers want
// DefaultConfig.
type Config struct {
	// MaxStates bounds the number of states expanded (summed across
	// shards); exceeding it stops the search with a partial Result and
	// ErrBudget. The cap is enforced per expansion, so a budget stop has
	// expanded exactly MaxStates states. Non-positive means unbounded.
	MaxStates int
	// Heuristic selects the admissible bound stack (zero value:
	// HeuristicMax, the strongest).
	Heuristic HeuristicMode
	// Dominance selects the lazy-deletion normal form: delete moves are
	// generated only on full processors (see expand). The name is the
	// rule's history: it is the one dominance rule the search keeps.
	Dominance bool
	// Witness requests reconstruction of one optimal move sequence. It
	// is an output switch only: the search is the one the other fields
	// select, and every Result field but Strategy is the same as
	// without it.
	Witness bool
	// Workers is the number of shards a ModeAsync search is hash-sharded
	// across: 0 means GOMAXPROCS; 1 runs the engine inline with no
	// goroutines. ModeDeterministic ignores it and always runs on one
	// shard, so its Result, witness Strategy included, is the same at
	// every setting.
	Workers int
	// Mode selects the shard count: ModeDeterministic (the zero value)
	// runs on one shard, deterministically, on one core; ModeAsync
	// shards across Workers for multicore throughput — the returned
	// Cost/Status stay exact, but at Workers > 1 States/Pruned/ReExpanded
	// and the witness trace become timing-dependent. See async.go.
	Mode Mode
}

// DefaultConfig is the fastest sound setup: the max heuristic with
// lazy deletion, on one shard. Set Mode to ModeAsync to shard the
// search across Workers (0, the default, means GOMAXPROCS).
func DefaultConfig(maxStates int) Config {
	return Config{MaxStates: maxStates, Heuristic: HeuristicMax, Dominance: true}
}

// ExactWith computes the exact optimum pebbling cost of the instance by
// A* search over configurations under cfg. With DefaultConfig that is
// the max of the compute-floor and I/O-aware admissible heuristics (see
// heuristic.go) plus the lazy-deletion normal form (see expand);
// processor shades are always canonicalized, so symmetric
// configurations collapse, and cfg.Witness only adds the rebuilt move
// sequence. cfg.MaxStates bounds the number of states expanded;
// exceeding it returns a partial Result plus an error wrapping
// ErrBudget. The search polls ctx, inside an expansion too, and
// likewise stops with a partial Result and an error wrapping ctx.Err()
// when it is canceled or its deadline passes (see Result for the
// anytime contract).
//
// ExactWith handles every Params combination: multiprocessor parallel
// moves, zero compute costs (classic SPP, where Dijkstra's
// non-negative-edge requirement still holds), and one-shot mode (the
// computed set joins the search state).
func ExactWith(ctx context.Context, in *pebble.Instance, cfg Config) (*Result, error) {
	return exact(ctx, in, cfg, nil)
}

// MaxExact is the largest node count, and the largest processor count,
// that ExactWith accepts. A state packs one bit per node into each of
// its k+2 words, and the search sizes its memory by k: the state table
// alone starts at 1024·(k+2) words, so an unbounded k would let one
// solve ask for gigabytes before its first expansion.
const MaxExact = 62

// exact runs the search. newTab overrides the per-shard state table
// constructor (tests pass the map-backed hashtab.Ref oracle); nil
// selects the open-addressing table. A constructor rather than an
// instance: the sharded engine needs one single-owner table per shard.
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
	if n > MaxExact {
		return nil, fmt.Errorf("opt: ExactWith supports at most %d nodes, got %d", MaxExact, n)
	}
	if in.K > MaxExact {
		return nil, fmt.Errorf("opt: ExactWith supports at most %d processors, got %d", MaxExact, in.K)
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

// parentEdge records how a state was reached at its best cost, for
// witness reconstruction. The parent may live on a different shard. The
// move names shade positions in the parent's canonical red words, not
// processors; reconstruct maps them back.
type parentEdge struct {
	from stateRef
	move pebble.Move
}

// solver is one shard's worker state: it owns a contiguous partition of
// the hash-sharded state space — its own table arena, distance and
// parent arrays and bucket queue — and exchanges only runs of
// candidates (see parallel.go) with other shards. With one
// worker there is exactly one solver holding the whole space.
type solver struct {
	in  *pebble.Instance
	ctx context.Context
	n   int
	cfg Config

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
	parent []parentEdge  // per state index; witness solves only
	bq     bucketQueue

	// expandedMark marks state indices this shard has expanded — the
	// dedupe for stale queue entries (a state queued twice via
	// equal-cost paths must not expand twice). The mark is cleared
	// again when a cheaper path reopens the state.
	expandedMark []bool
	pruned       int // distinct dead states (one-shot)
	reopened     int // expanded states reopened by a better g
	ticks        int // expansions and product candidates, for ctx-poll throttling

	// Cross-shard routing state: the outgoing run per destination shard
	// (W > 1 only fills them), and the empty run take swaps into this
	// shard's mailbox.
	out   []run
	spare run

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

// offer canonicalizes the candidate state in s.cand and routes it at
// the given g-cost to its owning shard: relaxed immediately when this
// shard owns it, gathered into a run for the owner's mailbox otherwise.
// The move is materialized from (kind, choice) only in a witness solve
// — lazily (only when relax accepts the candidate) on the local path;
// eagerly when crossing shards, since the scratch choice vector cannot
// travel.
//
//mpp:hotpath
func (s *solver) offer(cost int64, kind pebble.OpKind, choice []int) {
	canonicalizeRed(s.cand[:s.in.K])
	if s.eng.nShards > 1 {
		if dst := s.eng.ownerOf(s.cand); dst != int(s.shard) {
			s.route(dst, cost, kind, choice)
			return
		}
	}
	idx, fresh := s.relax(s.cand, cost)
	if idx < 0 {
		return
	}
	if s.cfg.Witness {
		s.parent[idx] = parentEdge{from: stateRef{shard: s.shard, idx: s.curIdx}, move: moveOf(kind, choice)}
	}
	s.enqueue(s.cand, cost, idx, fresh)
}

// applyRemote relaxes one candidate received from another shard — the
// deferred half of offer, run when the owner applies its mailbox. The
// words slice aliases the run's buffer; Insert copies it.
//
//mpp:hotpath
func (s *solver) applyRemote(w []uint64, cost int64, from stateRef, move pebble.Move) {
	idx, fresh := s.relax(w, cost)
	if idx < 0 {
		return
	}
	if s.cfg.Witness {
		s.parent[idx] = parentEdge{from: from, move: move}
	}
	s.enqueue(w, cost, idx, fresh)
}

// relax is the one relaxation of a candidate — words w at g-cost cost —
// on its owning shard: one probe of the state table, by Insert.
//
//   - A known state at a distance no greater than cost rejects the
//     candidate. Most candidates are such duplicates, and a rejection
//     allocates nothing.
//   - A known state at a higher distance is lowered. If it was already
//     expanded it is reopened (the re-expansion rule, see async.go): the
//     expanded mark is cleared so the state expands again with the
//     better g. Only speculation across shards triggers it; one shard
//     expands every state at its final distance.
//   - A new state is interned, and the per-state arrays grow.
//
// Returns the state index and whether the state is new, or idx -1 when
// the candidate is rejected.
//
//mpp:hotpath
func (s *solver) relax(w []uint64, cost int64) (int32, bool) {
	i, known := s.tab.Insert(w)
	idx := int32(i)
	if !known {
		s.dist = append(s.dist, cost)
		s.expandedMark = append(s.expandedMark, false)
		if s.cfg.Witness {
			s.parent = append(s.parent, parentEdge{from: stateRef{idx: -1}})
		}
		return idx, true
	}
	if s.dist[idx] <= cost {
		return -1, false
	}
	s.dist[idx] = cost
	if s.expandedMark[idx] {
		s.expandedMark[idx] = false
		s.reopened++
	}
	return idx, false
}

// enqueue finishes an improving relaxation: incumbent bookkeeping, the
// dead-state drop, and the frontier push.
//
//mpp:hotpath
func (s *solver) enqueue(w []uint64, cost int64, idx int32, fresh bool) {
	// Anytime incumbent: any goal state relaxed at cost c witnesses a
	// feasible pebbling of cost c, even though optimality is only proven
	// once no open entry lies below it. The incumbent is a search-wide
	// atomic min. Equal-cost goals are offered too: offerIncumbent breaks
	// the tie by state ref.
	if cost <= s.eng.incumbentNow() && s.isGoal(w) {
		s.eng.offerIncumbent(cost, stateRef{shard: s.shard, idx: idx})
	}
	h := s.h(w)
	if h < 0 {
		// Dead state (one-shot): provably cannot reach the goal. It
		// stays in the table (so re-derivations are cheap) but is never
		// queued. Counted into Pruned only on first insertion: dead-ness
		// is a pure function of the state words, so counting per state
		// (not per improvement event) keeps Pruned order-independent.
		if fresh {
			s.pruned++
		}
		return
	}
	s.bq.push(cost+h, idx, cost)
}

// expand generates the successors of s.cur under the maximal-move normal
// form (DESIGN.md §6). A parallel move costs the same whatever the size
// of its shaded selection, so in a compute, read or write move every
// processor with a legal action takes one: the successor of a smaller
// selection is reachable from the maximal one's by free deletes, and the
// extra pebbles never hurt. One-shot computes are the exception and
// keep the idle choice, because computing a node early forbids
// computing it later on another processor.
//
// One expansion enumerates up to ∏(options+1) selections, 2^k and more
// when the shades are empty, so the enumeration polls ctx itself and
// expand returns false when it stopped there, part-way.
//
//mpp:hotpath
func (s *solver) expand(cost int64) bool {
	k := s.in.K
	gCost := int64(s.in.G)
	cCost := int64(s.in.ComputeCost)

	// Per-processor candidate actions for each move kind. A full
	// processor gets no compute or read option: it would exceed r, and
	// under lazy deletion it deletes first.
	blue := s.blueWord(s.cur)
	computed := s.computedWord(s.cur)
	for p := 0; p < k; p++ {
		co := s.computeOpts[p][:0]
		ro := s.readOpts[p][:0]
		wo := s.writeOpts[p][:0]
		red := s.cur[p]
		full := popcount(red) >= s.in.R
		for v := 0; v < s.n; v++ {
			bit := uint64(1) << uint(v)
			if red&bit != 0 {
				// Write v from p: v red on p, not already blue.
				if blue&bit == 0 {
					wo = append(wo, v)
				}
				continue
			}
			if full {
				continue
			}
			// Compute v on p: all preds red on p.
			if s.predMask[v]&^red == 0 && (!s.in.OneShot || computed&bit == 0) {
				co = append(co, v)
			}
			// Read v into p: v blue.
			if blue&bit != 0 {
				ro = append(ro, v)
			}
		}
		s.computeOpts[p], s.readOpts[p], s.writeOpts[p] = co, ro, wo
	}

	// Delete edges (cost 0): remove one red pebble. Blue deletions are
	// never beneficial (slow memory is unlimited), so they are skipped.
	// With Config.Dominance, deletes are additionally restricted to
	// *full* processors (lazy deletion): a move adds at most one red
	// pebble per processor, so one free slot is always enough, and any
	// pebbling reorders at equal cost into this normal form — surplus
	// pebbles never invalidate later moves and only help the goal. A
	// shade tied with the one before it (equal canonical red words)
	// would only repeat that shade's successors, so it is skipped.
	for p := 0; p < k; p++ {
		reds := s.cur[p]
		if p > 0 && reds == s.cur[p-1] {
			continue
		}
		if s.cfg.Dominance && popcount(reds) < s.in.R {
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

	return s.product(s.computeOpts, pebble.OpCompute, cost+cCost, s.in.OneShot) &&
		s.product(s.readOpts, pebble.OpRead, cost+gCost, false) &&
		s.product(s.writeOpts, pebble.OpWrite, cost+gCost, false)
}

// applyChoice builds the successor for s.choice under the given move kind
// into s.cand and offers it if legal. No processor can overflow r: only
// processors with a free slot have compute or read options (expand).
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
		}
	case pebble.OpRead:
		for p, v := range s.choice {
			if v < 0 {
				continue
			}
			s.cand[p] |= 1 << uint(v)
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

// product enumerates the maximal combinations of per-processor choices
// into s.choice and applies each: a processor with options takes one of
// them, and one without stays idle (-1). With idle set (one-shot
// computes) every processor may also stay idle, so every non-empty
// combination is tried. One-shot duplicates of the same node on
// different processors in a single compute move are rejected in
// applyChoice. It polls ctx once every ctxCheckMask+1 candidates and
// returns false, unwinding at once, when ctx is done.
//
// Tied shades enumerate multisets. s.cur is canonical, so shades with
// equal red words are adjacent and have equal option lists, and any
// arrangement of their picks canonicalizes to one successor. A shade
// tied with the one before it therefore picks only at or after that
// shade's pick, in loop order (idle first, then the options, which
// ascend by node): k empty shades over two sources give k+1 selections,
// not 2^k. The arrangement kept is the first of its multiset that the
// full product would offer, so every successor's first candidate, and
// with it its parent edge, is unchanged; the table rejected the later
// ones, at equal cost, without effect.
//
//mpp:hotpath
func (s *solver) product(opts [][]int, kind pebble.OpKind, newCost int64, idle bool) bool {
	return s.productRec(opts, kind, newCost, 0, idle, false)
}

//mpp:hotpath
func (s *solver) productRec(opts [][]int, kind pebble.OpKind, newCost int64, p int, idle, any bool) bool {
	if p == len(opts) {
		if any {
			s.ticks++
			if s.ticks&ctxCheckMask == 0 && s.ctx.Err() != nil {
				return false
			}
			s.applyChoice(kind, newCost)
		}
		return true
	}
	lo := -1 // the least pick allowed; -1 (idle) allows every pick
	if p > 0 && s.cur[p] == s.cur[p-1] {
		lo = s.choice[p-1]
	}
	if (idle || len(opts[p]) == 0) && lo < 0 {
		s.choice[p] = -1
		if !s.productRec(opts, kind, newCost, p+1, idle, any) {
			return false
		}
	}
	for _, v := range opts[p] {
		if v < lo {
			continue
		}
		s.choice[p] = v
		if !s.productRec(opts, kind, newCost, p+1, idle, true) {
			return false
		}
	}
	s.choice[p] = -1
	return true
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
