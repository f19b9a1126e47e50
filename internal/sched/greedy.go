package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/pebble"
)

// SelectRule chooses how a greedy processor scores candidate nodes.
type SelectRule int

const (
	// SelectCount scores a candidate by the number of its in-neighbors
	// holding the processor's red pebbles.
	SelectCount SelectRule = iota
	// SelectFraction scores by the fraction of in-neighbors holding the
	// processor's red pebbles (sources score 0 under both rules).
	SelectFraction
)

func (s SelectRule) String() string {
	if s == SelectFraction {
		return "fraction"
	}
	return "count"
}

// TieBreak disambiguates equal greedy scores.
type TieBreak int

const (
	// TieLowID prefers the smallest node ID.
	TieLowID TieBreak = iota
	// TieHighID prefers the largest node ID.
	TieHighID
)

func (t TieBreak) String() string {
	if t == TieHighID {
		return "high"
	}
	return "low"
}

// EvictRule chooses the eviction victim when fast memory is full.
// Regardless of rule, dead nodes (no uncomputed successors, not an
// unsaved sink) are always evicted first since dropping them is free.
type EvictRule int

const (
	// EvictLRU evicts the least recently touched red pebble.
	EvictLRU EvictRule = iota
	// EvictFewestUses evicts the red pebble with the fewest uncomputed
	// successors remaining.
	EvictFewestUses
)

func (e EvictRule) String() string {
	if e == EvictFewestUses {
		return "fewest"
	}
	return "lru"
}

// Greedy implements the greedy strategy class analyzed in Lemmas 3 and 4:
// in every round, each processor p claims the yet-uncomputed ready node
// with the best Select score for p, fetches missing inputs through slow
// memory (writing them out from whichever processor holds them if
// necessary), and all claimed nodes are computed in one parallel move.
// Greedy never recomputes a node and spills live pebbles before eviction,
// so it is a "non-idle greedy schedule" in the sense of Lemma 3.
type Greedy struct {
	Select SelectRule
	Tie    TieBreak
	Evict  EvictRule
}

// Name implements Scheduler.
func (g Greedy) Name() string {
	return fmt.Sprintf("greedy(%s,%s,%s)", g.Select, g.Tie, g.Evict)
}

// Schedule implements Scheduler.
func (g Greedy) Schedule(in *pebble.Instance) (*pebble.Strategy, error) {
	e := newGreedyEngine(in, g)
	return e.run()
}

// redSlot is one resident red pebble of a processor: the node and the
// round it was last touched (the LRU eviction key). The per-processor
// slot table holds at most r entries, so eviction scans O(r) residents
// instead of an n/64-word bitset sweep.
type redSlot struct {
	node  dag.NodeID
	touch int64
}

// scoreEntry is a (score, node) snapshot in a processor's lazy max-heap.
// Entries are never updated in place: every score change pushes a fresh
// snapshot and pick discards stale ones at pop time.
type scoreEntry struct {
	score float64
	node  dag.NodeID
}

// greedyEngine is the CSR-native greedy scheduler core. Everything is a
// dense index array over node IDs — no per-node maps anywhere — and all
// steady-state work routes through the //mpp:hotpath-annotated methods
// below, which hotalloc keeps allocation-free:
//
//   - redPreds[p][v] counts v's predecessors currently red on p, updated
//     incrementally as pebbles appear/disappear (redAdd/redDrop), so a
//     candidate's greedy score is O(1) instead of an in-neighbor scan;
//   - heaps[p] is a lazy max-heap of score snapshots: every score change
//     pushes, pick pops and discards entries whose node is computed,
//     claimed this round, or whose snapshot no longer matches the live
//     score — replacing the full ready-list rescan per processor per
//     round;
//   - slots[p]/slotOf[p] mirror the Builder's red sets as an O(r) slot
//     table carrying last-touch rounds, replacing the k×n lastTouch
//     matrix and making eviction an O(r) scan;
//   - claimStamp/pinStamp are round- and epoch-stamped arrays standing in
//     for the per-round claimed map and per-fetch pinned map.
//
// The engine is byte-identical to the frozen map-backed oracle in
// oracle_test.go for every policy (equiv_test.go asserts it): the
// eviction comparator is a total order with a smallest-ID tie-break, so
// the slot-table scan order cannot change the victim, and the heap
// discipline returns exactly the linear scan's argmax.
type greedyEngine struct {
	in   *pebble.Instance
	pol  Greedy
	b    *pebble.Builder
	n, k int

	computed []bool
	remSuccs []int32 // uncomputed successors per node
	remPreds []int32 // uncomputed predecessors per node (readiness)
	ready    []dag.NodeID
	readyPos []int32 // position in ready slice, -1 if absent
	isSink   []bool
	left     int   // uncomputed nodes
	clock    int64 // round counter; doubles as the claim epoch

	redPreds [][]int32   // redPreds[p][v]: predecessors of v red on p
	slots    [][]redSlot // resident red pebbles per shade (≤ r each)
	slotOf   [][]int32   // slotOf[p][v]: index into slots[p], -1 absent
	heaps    [][]scoreEntry

	claimStamp []int64      // claimStamp[v] == clock ⇒ claimed this round
	targets    []dag.NodeID // per-processor claim of the current round

	pinStamp []int64 // pinStamp[v] == pinEpoch ⇒ pinned in current fetch
	pinEpoch int64
	pinCount int

	// recompute, when non-nil, may satisfy a missing input by
	// recomputing it (RecomputeGreedy); it returns false to fall back to
	// the slow-memory path. Pins are managed through pin/unpin.
	recompute func(p int, u dag.NodeID) bool

	// randomTie, when non-nil, replaces deterministic tie-breaking with
	// uniform draws among maximum-score candidates (RandomRestartGreedy).
	randomTie *rand.Rand
	pool      []dag.NodeID // randomPick scratch
}

func newGreedyEngine(in *pebble.Instance, pol Greedy) *greedyEngine {
	n, k := in.Graph.N(), in.K
	e := &greedyEngine{
		in: in, pol: pol, b: pebble.NewBuilder(in),
		n: n, k: k,
		computed:   make([]bool, n),
		remSuccs:   make([]int32, n),
		remPreds:   make([]int32, n),
		readyPos:   make([]int32, n),
		isSink:     make([]bool, n),
		left:       n,
		redPreds:   make([][]int32, k),
		slots:      make([][]redSlot, k),
		slotOf:     make([][]int32, k),
		heaps:      make([][]scoreEntry, k),
		claimStamp: make([]int64, n),
		targets:    make([]dag.NodeID, k),
		pinStamp:   make([]int64, n),
	}
	slotCap := in.R
	if slotCap > n {
		slotCap = n
	}
	for p := 0; p < k; p++ {
		e.redPreds[p] = make([]int32, n)
		e.slotOf[p] = make([]int32, n)
		for i := range e.slotOf[p] {
			e.slotOf[p][i] = -1
		}
		e.slots[p] = make([]redSlot, 0, slotCap)
	}
	for v := 0; v < n; v++ {
		e.remSuccs[v] = int32(in.Graph.OutDegree(dag.NodeID(v)))
		e.remPreds[v] = int32(in.Graph.InDegree(dag.NodeID(v)))
		e.readyPos[v] = -1
		e.pinStamp[v] = -1
	}
	for _, s := range in.Graph.Sinks() {
		e.isSink[s] = true
	}
	for v := 0; v < n; v++ {
		if e.remPreds[v] == 0 {
			e.pushReady(dag.NodeID(v))
		}
	}
	return e
}

// scoreOf returns the live greedy score of candidate v for processor p
// in O(1) from the incremental red-predecessor counter.
//
//mpp:hotpath
func (e *greedyEngine) scoreOf(p int, v dag.NodeID) float64 {
	indeg := e.in.Graph.InDegree(v)
	if indeg == 0 {
		return 0
	}
	red := e.redPreds[p][v]
	if e.pol.Select == SelectFraction {
		return float64(red) / float64(indeg)
	}
	return float64(red)
}

// entryBefore reports whether heap entry a outranks b: higher score
// first, then the policy's ID tie-break.
//
//mpp:hotpath
func (e *greedyEngine) entryBefore(a, b scoreEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if e.pol.Tie == TieLowID {
		return a.node < b.node
	}
	return a.node > b.node
}

//mpp:hotpath
func (e *greedyEngine) heapPush(p int, sc float64, v dag.NodeID) {
	h := append(e.heaps[p], scoreEntry{sc, v})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.entryBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heaps[p] = h
}

//mpp:hotpath
func (e *greedyEngine) siftDown(h []scoreEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && e.entryBefore(h[r], h[l]) {
			best = r
		}
		if !e.entryBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// rebuildHeap compacts p's heap back to one live snapshot per ready
// node; pick triggers it when stale entries outnumber live ones 4:1.
//
//mpp:hotpath
func (e *greedyEngine) rebuildHeap(p int) {
	h := e.heaps[p][:0]
	for _, v := range e.ready {
		h = append(h, scoreEntry{e.scoreOf(p, v), v})
	}
	e.heaps[p] = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		e.siftDown(h, i)
	}
}

// pick returns the best unclaimed ready node for p, or -1. It pops the
// lazy heap, discarding snapshots that are computed, already claimed
// this round, or stale (score no longer live); the first live snapshot
// is the same argmax the oracle's linear rescan finds, because every
// score transition pushes a fresh snapshot.
//
//mpp:hotpath
func (e *greedyEngine) pick(p int) dag.NodeID {
	if len(e.heaps[p]) > 4*len(e.ready)+64 {
		e.rebuildHeap(p)
	}
	h := e.heaps[p]
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		e.siftDown(h, 0)
		v := top.node
		if e.readyPos[v] >= 0 && e.claimStamp[v] != e.clock && top.score == e.scoreOf(p, v) {
			e.heaps[p] = h
			return v
		}
	}
	e.heaps[p] = h
	return -1
}

//mpp:hotpath
func (e *greedyEngine) pushReady(v dag.NodeID) {
	e.readyPos[v] = int32(len(e.ready))
	e.ready = append(e.ready, v)
	for p := 0; p < e.k; p++ {
		e.heapPush(p, e.scoreOf(p, v), v)
	}
}

//mpp:hotpath
func (e *greedyEngine) dropReady(v dag.NodeID) {
	pos := e.readyPos[v]
	last := len(e.ready) - 1
	e.ready[pos] = e.ready[last]
	e.readyPos[e.ready[pos]] = pos
	e.ready = e.ready[:last]
	e.readyPos[v] = -1
}

// redAdd records that u became red on p: bump the red-predecessor count
// of every successor and refresh ready candidates' heap snapshots.
//
//mpp:hotpath
func (e *greedyEngine) redAdd(p int, u dag.NodeID) {
	for _, w := range e.in.Graph.Succ(u) {
		e.redPreds[p][w]++
		if e.readyPos[w] >= 0 {
			e.heapPush(p, e.scoreOf(p, w), w)
		}
	}
}

// redDrop is the removal counterpart of redAdd. Downward score moves
// push snapshots too — pick's staleness check needs the live value
// present in the heap, whichever direction the score moved.
//
//mpp:hotpath
func (e *greedyEngine) redDrop(p int, u dag.NodeID) {
	for _, w := range e.in.Graph.Succ(u) {
		e.redPreds[p][w]--
		if e.readyPos[w] >= 0 {
			e.heapPush(p, e.scoreOf(p, w), w)
		}
	}
}

// residentAdd mirrors a Builder red-pebble insertion into the slot
// table, stamped with the current round as its touch time.
//
//mpp:hotpath
func (e *greedyEngine) residentAdd(p int, u dag.NodeID) {
	e.slotOf[p][u] = int32(len(e.slots[p]))
	e.slots[p] = append(e.slots[p], redSlot{u, e.clock})
	e.redAdd(p, u)
}

// residentDrop mirrors a Builder red-pebble removal (swap-remove).
//
//mpp:hotpath
func (e *greedyEngine) residentDrop(p int, u dag.NodeID) {
	sl := e.slots[p]
	i := e.slotOf[p][u]
	last := int32(len(sl) - 1)
	sl[i] = sl[last]
	e.slotOf[p][sl[i].node] = i
	e.slots[p] = sl[:last]
	e.slotOf[p][u] = -1
	e.redDrop(p, u)
}

// touch refreshes u's LRU stamp on p (u must be resident).
//
//mpp:hotpath
func (e *greedyEngine) touch(p int, u dag.NodeID) {
	e.slots[p][e.slotOf[p][u]].touch = e.clock
}

// dead reports whether u's red pebble on any processor can be dropped for
// free: all successors computed, and either not a sink or already saved.
//
//mpp:hotpath
func (e *greedyEngine) dead(u dag.NodeID) bool {
	if e.remSuccs[u] > 0 {
		return false
	}
	if e.isSink[u] && !e.b.Config().Blue.Contains(int(u)) {
		return false
	}
	return true
}

// newPinEpoch starts a fresh pinned set (O(1) — stamps from prior
// epochs are implicitly unpinned).
//
//mpp:hotpath
func (e *greedyEngine) newPinEpoch() {
	e.pinEpoch++
	e.pinCount = 0
}

// pin adds v to the current pinned set; reports whether v was newly
// pinned.
//
//mpp:hotpath
func (e *greedyEngine) pin(v dag.NodeID) bool {
	if e.pinStamp[v] == e.pinEpoch {
		return false
	}
	e.pinStamp[v] = e.pinEpoch
	e.pinCount++
	return true
}

//mpp:hotpath
func (e *greedyEngine) unpin(v dag.NodeID) {
	if e.pinStamp[v] == e.pinEpoch {
		e.pinStamp[v] = -1
		e.pinCount--
	}
}

//mpp:hotpath
func (e *greedyEngine) pinnedNow(v dag.NodeID) bool {
	return e.pinStamp[v] == e.pinEpoch
}

// makeRoom evicts pebbles from p until at least want slots are free,
// never touching pinned nodes. Live, unsaved victims are spilled (write)
// before deletion. The comparator is a total order — dead first, then
// blue-backed, then smallest key, then smallest ID — so the O(r) slot
// scan picks the same victim the oracle's ascending bitset sweep does.
func (e *greedyEngine) makeRoom(p, want int) error {
	for e.b.FreeSlots(p) < want {
		victim := dag.NodeID(-1)
		victimDead := false
		victimBlue := false
		var victimKey int64
		blue := e.b.Config().Blue
		sl := e.slots[p]
		for i := range sl {
			u := sl[i].node
			if e.pinStamp[u] == e.pinEpoch {
				continue
			}
			d := e.dead(u)
			bl := blue.Contains(int(u))
			var key int64
			if e.pol.Evict == EvictLRU {
				key = sl[i].touch
			} else {
				key = int64(e.remSuccs[u])
			}
			// Preference order: dead > blue-backed > live; within a class,
			// smaller key first, then smaller ID.
			better := false
			switch {
			case victim == -1:
				better = true
			case d != victimDead:
				better = d
			case bl != victimBlue:
				better = bl
			case key != victimKey:
				better = key < victimKey
			default:
				better = u < victim
			}
			if better {
				victim, victimDead, victimBlue, victimKey = u, d, bl, key
			}
		}
		if victim == -1 {
			return fmt.Errorf("greedy: processor %d cannot free %d slots (r=%d too small for pinned set %d)",
				p, want, e.in.R, e.pinCount)
		}
		if !victimDead && !victimBlue {
			e.b.Write(pebble.At(p, victim))
		}
		e.b.Delete(pebble.At(p, victim))
		e.residentDrop(p, victim)
	}
	return nil
}

// fetch ensures all predecessors of v are red on p, spilling/reading
// through slow memory as needed. Returns an error on broken invariants.
func (e *greedyEngine) fetch(p int, v dag.NodeID) error {
	preds := e.in.Graph.Pred(v)
	e.newPinEpoch()
	for _, u := range preds {
		e.pin(u)
	}
	e.pin(v)
	cfg := e.b.Config()
	for _, u := range preds {
		if e.slotOf[p][u] >= 0 {
			e.touch(p, u)
			continue
		}
		if e.recompute != nil && !e.in.OneShot && e.recompute(p, u) {
			e.touch(p, u)
			continue
		}
		if !cfg.Blue.Contains(int(u)) {
			// Some other processor must hold it red; make it blue first.
			owner := -1
			for q := 0; q < e.k; q++ {
				if e.slotOf[q][u] >= 0 {
					owner = q
					break
				}
			}
			if owner == -1 {
				return fmt.Errorf("greedy: computed node %d has no pebble anywhere", u)
			}
			e.b.Write(pebble.At(owner, u))
		}
		if err := e.makeRoom(p, 1); err != nil {
			return err
		}
		e.b.Read(pebble.At(p, u))
		e.residentAdd(p, u)
	}
	return e.makeRoom(p, 1)
}

//mpp:hotpath
func (e *greedyEngine) markComputed(v dag.NodeID) {
	e.computed[v] = true
	e.left--
	e.dropReady(v)
	for _, u := range e.in.Graph.Pred(v) {
		e.remSuccs[u]--
	}
	for _, w := range e.in.Graph.Succ(v) {
		e.remPreds[w]--
		if e.remPreds[w] == 0 {
			e.pushReady(w)
		}
	}
}

func (e *greedyEngine) run() (*pebble.Strategy, error) {
	acts := make([]pebble.Action, 0, e.k) // the compute move's scratch; the Builder copies it
	for e.left > 0 {
		e.clock++
		if len(e.ready) == 0 {
			return nil, fmt.Errorf("greedy: no ready node with %d nodes uncomputed", e.left)
		}
		// Claim phase: claimStamp doubles as the per-round claimed set.
		live := 0
		for p := 0; p < e.k; p++ {
			if e.randomTie != nil {
				e.targets[p] = e.randomPick(p)
			} else {
				e.targets[p] = e.pick(p)
			}
			if e.targets[p] >= 0 {
				e.claimStamp[e.targets[p]] = e.clock
				live++
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("greedy: stalled round with %d nodes uncomputed", e.left)
		}
		// Fetch phase (sequential per processor; I/O moves are emitted as
		// single-action moves — the analysis of Lemmas 3-4 does not rely
		// on I/O batching).
		for p := 0; p < e.k; p++ {
			if e.targets[p] < 0 {
				continue
			}
			if err := e.fetch(p, e.targets[p]); err != nil {
				return nil, err
			}
		}
		// Compute phase: one parallel move for all claimed nodes.
		acts = acts[:0]
		for p := 0; p < e.k; p++ {
			if e.targets[p] >= 0 {
				acts = append(acts, pebble.At(p, e.targets[p]))
			}
		}
		e.b.ComputeParallel(acts...)
		for _, a := range acts {
			e.residentAdd(int(a.Proc), a.Node)
			e.markComputed(a.Node)
		}
	}
	// Save any sink that holds only red pebbles? Not needed: sinks keep
	// their red pebble unless evicted, and eviction spills unsaved sinks.
	return e.b.Strategy(), nil
}
