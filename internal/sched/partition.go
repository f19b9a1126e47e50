package sched

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dag"
	"repro/internal/pebble"
)

// Partitioned is a static owner-computes scheduler: an AssignFunc
// partitions the nodes among the k processors; each processor pebbles its
// own nodes in global topological order with exact Belady (furthest next
// local use) eviction; values crossing the partition travel through slow
// memory — the producer publishes (writes) them right after computing,
// the consumer reads them on demand. Rounds batch one action per
// processor into shared write, read and compute moves, so k-way
// parallelism costs one move per round per move kind.
//
// Scheduling itself runs in two phases. Phase A simulates each
// partition's micro-op stream independently — every local decision
// (read set, Belady victim, spill-vs-free eviction) is a function of
// the partition's own state alone, because blue pebbles are monotone,
// a non-blue resident is always locally owned with only local
// consumers, and cross-partition traffic only delays when a block
// starts, never what it does — so the k simulations fan out across
// Workers goroutines. Phase B merges the streams round by round in
// processor order, reproducing the sequential engine's move sequence
// byte-for-byte for every worker count (equiv_test.go asserts this
// under -race).
type Partitioned struct {
	Assign     AssignFunc
	AssignName string
	// Workers bounds the phase-A simulation fan-out; 0 means
	// min(k, GOMAXPROCS). The resulting strategy is identical for every
	// value.
	Workers int
}

// Name implements Scheduler.
func (p Partitioned) Name() string { return fmt.Sprintf("partitioned(%s)", p.AssignName) }

// Schedule implements Scheduler.
func (p Partitioned) Schedule(in *pebble.Instance) (*pebble.Strategy, error) {
	assign := p.Assign(in.Graph, in.K)
	if len(assign) != in.N() {
		return nil, fmt.Errorf("partitioned: assignment covers %d of %d nodes", len(assign), in.N())
	}
	for v, a := range assign {
		if a < 0 || a >= in.K {
			return nil, fmt.Errorf("partitioned: node %d assigned to processor %d outside [0,%d)", v, a, in.K)
		}
	}
	e := newPartEngine(in, assign, p.Workers)
	return e.run()
}

// Event kinds of a partition's local micro-op stream. A peRead/peCompute
// event may carry an attached free eviction (del ≥ 0) that the merge
// emits as an immediate single-action delete, exactly where the
// sequential engine emitted it; a peSpill event is a standalone
// write+delete that consumes the processor's whole round.
const (
	peRead uint8 = iota
	peCompute
	pePublish
	peSpill
)

type partEvent struct {
	node dag.NodeID
	del  dag.NodeID // free-eviction victim attached to this event, -1 none
	kind uint8
}

// partBlock is the event range of one owned node: its reads (which
// double as the cross-partition gate — every read target must be blue
// before the block may start), interleaved spills, the compute, and the
// publish if the node has foreign consumers.
type partBlock struct {
	evStart, evEnd int32
}

// partStream is one partition's fully simulated micro-op stream. err is
// non-nil when the simulation wedged (no evictable pebble); the merge
// surfaces it at the exact round the sequential engine would have.
type partStream struct {
	events []partEvent
	blocks []partBlock
	err    error
}

// pslot is a resident red pebble in the phase-A simulation: the node and
// whether it is backed by a blue pebble (read-origin residents always
// are; compute-origin residents become blue at their publish event).
type pslot struct {
	node dag.NodeID
	blue bool
}

type partEngine struct {
	in      *pebble.Instance
	b       *pebble.Builder
	assign  []int
	k       int
	workers int

	order    [][]dag.NodeID // per-processor nodes in global topo order
	isSink   []bool
	crossOut []bool // node has a successor owned by another processor

	streams []partStream

	// Phase-B merge cursors.
	bi      []int // current block per processor
	ei      []int // current event per processor
	planned []bool

	computed      []bool
	computedCount int
}

func newPartEngine(in *pebble.Instance, assign []int, workers int) *partEngine {
	n, k := in.Graph.N(), in.K
	e := &partEngine{
		in: in, b: pebble.NewBuilder(in), assign: assign, k: k,
		workers: workers,
		order:   make([][]dag.NodeID, k),
		isSink:  make([]bool, n), crossOut: make([]bool, n),
		streams: make([]partStream, k),
		bi:      make([]int, k), ei: make([]int, k), planned: make([]bool, k),
		computed: make([]bool, n),
	}
	for _, v := range in.Graph.Topo() {
		p := assign[v]
		e.order[p] = append(e.order[p], v)
	}
	for _, s := range in.Graph.Sinks() {
		e.isSink[s] = true
	}
	for v := 0; v < n; v++ {
		for _, w := range in.Graph.Succ(dag.NodeID(v)) {
			if assign[w] != assign[v] {
				e.crossOut[v] = true
				break
			}
		}
	}
	return e
}

// simulatePartition runs processor p's whole schedule against local
// state only and returns its micro-op stream. Correctness of the local
// view: blue pebbles are never deleted, so a gate that passes stays
// passed; every non-blue resident was computed locally, is not
// cross-out (the publish is consumed, pinned, before the next block
// begins) and unspilled, so its global deadness equals "no remaining
// local use"; and the Belady comparator is a total order (free status,
// then furthest next use, then smallest ID), so victim choice cannot
// depend on scan order. Stalls on unpublished inputs shift rounds, not
// decisions, and the merge re-applies the round timing.
//
//mpp:deterministic
func (e *partEngine) simulatePartition(p int) partStream {
	g := e.in.Graph
	n := g.N()
	order := e.order[p]
	var st partStream

	// Local next-use lists in CSR layout: useOff[u]..useOff[u+1] index
	// the order positions consuming u, ascending.
	useOff := make([]int32, n+1)
	for _, v := range order {
		for _, u := range g.Pred(v) {
			useOff[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		useOff[u+1] += useOff[u]
	}
	useList := make([]int32, useOff[n])
	useCur := make([]int32, n)
	copy(useCur, useOff[:n])
	fill := make([]int32, n)
	copy(fill, useOff[:n])
	for pos, v := range order {
		for _, u := range g.Pred(v) {
			useList[fill[u]] = int32(pos)
			fill[u]++
		}
	}

	const inf = 1 << 30
	nextUse := func(u dag.NodeID, from int) int {
		i := useCur[u]
		for i < useOff[u+1] && useList[i] < int32(from) {
			i++
		}
		useCur[u] = i
		if i == useOff[u+1] {
			return inf
		}
		return int(useList[i])
	}

	slots := make([]pslot, 0, e.in.R)
	slotOf := make([]int32, n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	free := e.in.R
	pinStamp := make([]int32, n)
	for i := range pinStamp {
		pinStamp[i] = -1
	}

	addSlot := func(u dag.NodeID, blue bool) {
		slotOf[u] = int32(len(slots))
		slots = append(slots, pslot{u, blue})
		free--
	}
	dropSlot := func(u dag.NodeID) {
		i := slotOf[u]
		last := int32(len(slots) - 1)
		slots[i] = slots[last]
		slotOf[slots[i].node] = i
		slots = slots[:last]
		slotOf[u] = -1
		free++
	}

	// evict frees one slot by exact-Belady choice: returns the victim
	// and whether it must be spilled (written before deletion); victim
	// -1 means the simulation is wedged.
	evict := func(pos int, epoch int32) (victim dag.NodeID, spill bool) {
		victim = -1
		victimFree := false
		victimUse := -1
		for i := range slots {
			u := slots[i].node
			if pinStamp[u] == epoch {
				continue
			}
			blue := slots[i].blue
			use := nextUse(u, pos)
			// For an unpinned non-blue resident every consumer is local
			// (see the function comment), so "no remaining local use"
			// is exactly global deadness.
			uFree := blue || (!e.isSink[u] && use == inf)
			if e.isSink[u] && !blue {
				use = inf // unsaved sinks are "needed forever": spill them last
			}
			better := false
			switch {
			case victim == -1:
				better = true
			case uFree != victimFree:
				better = uFree
			case use != victimUse:
				better = use > victimUse
			default:
				better = u < victim
			}
			if better {
				victim, victimFree, victimUse = u, uFree, use
			}
		}
		if victim == -1 {
			return -1, false
		}
		return victim, !victimFree && !slots[slotOf[victim]].blue
	}

	for pos, v := range order {
		epoch := int32(pos)
		for _, u := range g.Pred(v) {
			pinStamp[u] = epoch
		}
		pinStamp[v] = epoch
		blk := partBlock{evStart: int32(len(st.events))}

		// fire emits one read/compute event, preceded by spill rounds
		// and/or an attached free eviction if the slot table is full.
		fire := func(kind uint8, node dag.NodeID) bool {
			del := dag.NodeID(-1)
			if free < 1 && slotOf[node] < 0 {
				victim, spill := evict(pos, epoch)
				if victim < 0 {
					st.err = fmt.Errorf("partitioned: processor %d wedged: no evictable pebble (r=%d)", p, e.in.R)
					return false
				}
				if spill {
					// A spill consumes the round; the op retries next
					// round with the slot now free.
					slots[slotOf[victim]].blue = true
					dropSlot(victim)
					st.events = append(st.events, partEvent{node: victim, del: -1, kind: peSpill})
				} else {
					dropSlot(victim)
					del = victim
				}
			}
			if slotOf[node] < 0 {
				addSlot(node, kind == peRead)
			}
			st.events = append(st.events, partEvent{node: node, del: del, kind: kind})
			return true
		}

		wedged := false
		for _, u := range g.Pred(v) {
			if slotOf[u] >= 0 {
				continue
			}
			if !fire(peRead, u) {
				wedged = true
				break
			}
		}
		if !wedged && fire(peCompute, v) && e.crossOut[v] {
			slots[slotOf[v]].blue = true
			st.events = append(st.events, partEvent{node: v, del: -1, kind: pePublish})
		}
		blk.evEnd = int32(len(st.events))
		st.blocks = append(st.blocks, blk)
		if st.err != nil {
			return st
		}
	}
	return st
}

// run merges the per-partition streams into the sequential engine's
// round structure: per round, processor-ascending, each non-stalled
// processor contributes one event; free-eviction deletes are emitted
// inline during the gather, then one batched write (spills before their
// deletes, publishes kept), one batched read, and one parallel compute.
// Blue updates land in the emission phase, so gates observed during a
// round's gather see the end of the previous round — exactly the
// sequential semantics.
//
//mpp:deterministic
func (e *partEngine) run() (*pebble.Strategy, error) {
	// Phase A: simulate partitions concurrently (bounded fan-out). The
	// result is indexed by processor, so scheduling order is irrelevant.
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > e.k {
		workers = e.k
	}
	if workers <= 1 {
		for p := 0; p < e.k; p++ {
			e.streams[p] = e.simulatePartition(p)
		}
	} else {
		var wg sync.WaitGroup
		procs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range procs {
					e.streams[p] = e.simulatePartition(p)
				}
			}()
		}
		for p := 0; p < e.k; p++ {
			procs <- p
		}
		close(procs)
		wg.Wait()
	}

	// Phase B: deterministic round merge.
	n := e.in.Graph.N()
	blue := e.b.Config().Blue
	// Per-round scratch: the Builder copies the actions it is given.
	var writes, reads, computes []pebble.Action
	var writeSpill []bool
	for e.computedCount < n {
		writes, reads, computes, writeSpill = writes[:0], reads[:0], computes[:0], writeSpill[:0]
		progress := false
		for p := 0; p < e.k; p++ {
			st := &e.streams[p]
			if e.bi[p] >= len(st.blocks) {
				continue // processor finished
			}
			blk := st.blocks[e.bi[p]]
			if !e.planned[p] {
				// Gate: every read target of the block must be blue.
				gated := false
				for i := blk.evStart; i < blk.evEnd; i++ {
					ev := st.events[i]
					if ev.kind == peRead && !blue.Contains(int(ev.node)) {
						gated = true
						break
					}
				}
				if gated {
					continue // stalled on an unpublished input
				}
				e.planned[p] = true
			}
			if e.ei[p] >= int(blk.evEnd) {
				// The stream wedged mid-block: surface the error at the
				// round the sequential engine would have.
				return nil, st.err
			}
			ev := st.events[e.ei[p]]
			if ev.del >= 0 {
				// Free eviction: emitted immediately during the gather,
				// before the batched moves.
				e.b.Delete(pebble.At(p, ev.del))
			}
			switch ev.kind {
			case peSpill:
				writes = append(writes, pebble.At(p, ev.node))
				writeSpill = append(writeSpill, true)
			case peRead:
				reads = append(reads, pebble.At(p, ev.node))
			case peCompute:
				computes = append(computes, pebble.At(p, ev.node))
			case pePublish:
				writes = append(writes, pebble.At(p, ev.node))
				writeSpill = append(writeSpill, false)
			}
			e.ei[p]++
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("partitioned: deadlock with %d of %d nodes computed", e.computedCount, n)
		}
		// Emit the round: spilled writes and publishes first, then reads,
		// then computes. Spill deletions follow their writes immediately;
		// publishes keep their red pebble.
		if len(writes) > 0 {
			e.b.Write(writes...)
			for i, w := range writes {
				if writeSpill[i] {
					e.b.Delete(w)
				}
			}
		}
		if len(reads) > 0 {
			e.b.Read(reads...)
		}
		if len(computes) > 0 {
			e.b.ComputeParallel(computes...)
		}
		for _, a := range computes {
			e.computed[a.Node] = true
			e.computedCount++
		}
		// Advance processors whose block is fully consumed. A wedged
		// stream's final (truncated) block is never advanced past: its
		// error must surface in the next round p is gathered, exactly
		// when the sequential engine would have hit the wall.
		for p := 0; p < e.k; p++ {
			st := &e.streams[p]
			if st.err != nil && e.bi[p] == len(st.blocks)-1 {
				continue
			}
			if e.planned[p] && e.bi[p] < len(st.blocks) && e.ei[p] >= int(st.blocks[e.bi[p]].evEnd) {
				e.bi[p]++
				e.planned[p] = false
			}
		}
	}
	return e.b.Strategy(), nil
}
