package opt

// Solver arena recycling.
//
// A search's dominant allocations are per-shard arenas: the state table,
// the distance/mark/parent arrays, the bucket queue's buckets, the
// cross-shard runs and the expansion scratch. All of them reset in O(1)
// or O(capacity-touched) without releasing memory, so solvers are
// recycled through a package-level sync.Pool: every ExactWith call (and
// therefore cmd/mppexp -j, the exp helpers and the server workers)
// reuses arenas from earlier searches automatically, which is what makes
// solving many instances back to back cheap.
//
// Oracle runs (a caller-supplied table constructor, see exact.go) stay
// outside the pool: a map-backed hashtab.Ref is a test double, not a
// reusable arena, and pooling it would let one leak into a production
// search.
//
// bind is the single preparation path for fresh and recycled solvers
// alike — every field is either overwritten outright or explicitly
// reset, so a recycled solver is indistinguishable from a fresh one
// (pool_test.go locks this with byte-identical pooled-vs-fresh runs).

import (
	"sync"

	"repro/internal/hashtab"
)

// solverPool recycles per-shard solver arenas across searches.
var solverPool sync.Pool

// maxPooledArenaBytes caps the retained arena capacity of a pooled
// solver. Arenas only ever grow (Reset keeps capacity — that is the
// point of the pool), so without a cap one huge budget-bounded search
// would pin its worst-case state table, queue and parent arrays on some
// pooled solver for the rest of the process, re-offered to every later
// solve however small. A solver past the cap is dropped on release and
// the next acquire starts fresh. 8 MiB does not keep the benchmark's
// exact solves pooled: fft2 at MPP(2,3,2) interns 456 901 states of
// 32 B, ≈ 14.6 MB of table keys alone, and its solver pins ≈ 36 MB in
// all, pyramid4's at MPP(1,4,2) ≈ 35 MB and grid3x3's at MPP(2,3,2)
// ≈ 9.3 MB. Each of those solvers is dropped after its solve, and the
// next solve regrows its arenas from empty; only smaller solves, such
// as the experiment suite's, are recycled. A 64 MiB cap would keep them
// all: on a 2-vCPU box, in three alternating bench/run.sh pairs,
// solve-hard's pass_s fell another 5.6% (1.545 → 1.458 s) but its peak
// RSS rose from 77 to 121 MB, past the benchmark's 25% bound, so the
// cap stays at 8 MiB. A variable, not a const, so pool_test.go can
// lower it.
var maxPooledArenaBytes = int64(8 << 20)

// Per-element sizes for arenaBytes, matching the arena element types.
const (
	sliceHdrBytes   = 24 // slice header retained per held buffer
	parentEdgeBytes = 40 // parentEdge: stateRef + Move header
	moveBytes       = 32 // pebble.Move: kind + Actions header
	stateRefBytes   = 8  // stateRef: shard + index
)

// arenaBytes estimates the capacity this solver's recycled arenas pin:
// the state table, the per-state arrays, the bucket queue and the
// cross-shard runs. Scratch buffers are O(n·k)
// and excluded. An estimate is all the retention cap needs.
func (s *solver) arenaBytes() int64 {
	var b int64
	if t, ok := s.tab.(*hashtab.Table); ok {
		b += t.ArenaBytes()
	}
	b += int64(cap(s.dist))*8 + sliceHdrBytes
	b += int64(cap(s.parent))*parentEdgeBytes + sliceHdrBytes
	b += int64(cap(s.expandedMark)) + sliceHdrBytes
	b += s.bq.arenaBytes()
	for _, r := range s.out[:cap(s.out)] {
		b += r.arenaBytes()
	}
	return b + s.spare.arenaBytes()
}

// arenaBytes is the capacity a run pins.
func (r *run) arenaBytes() int64 {
	return int64(cap(r.words))*8 + int64(cap(r.costs))*8 +
		int64(cap(r.froms))*stateRefBytes + int64(cap(r.moves))*moveBytes + 4*sliceHdrBytes
}

// acquireSolver returns a recycled solver when pooling is on, a fresh
// one otherwise.
func acquireSolver(pooled bool) *solver {
	if pooled {
		if v := solverPool.Get(); v != nil {
			return v.(*solver)
		}
	}
	return &solver{}
}

// bind prepares this solver (fresh or recycled) as shard `shard` of
// engine e: instance-derived lookups, scratch buffers, and every arena
// reset to empty while keeping its capacity. The state table is reused
// only when it is the open-addressing kind with the right key width;
// otherwise the constructor runs.
func (s *solver) bind(e *engine, shard int32, newTab func() hashtab.Index, pooled bool) {
	in := e.in
	s.in, s.ctx, s.cfg = in, e.ctx, e.cfg
	s.n = in.Graph.N()
	s.eng, s.shard = e, shard
	s.pruned, s.reopened, s.ticks = 0, 0, 0
	s.curIdx = 0
	s.initDerived()
	s.initScratch()

	if t, ok := s.tab.(*hashtab.Table); pooled && ok && t.WordsPerKey() == stateWords(in.K) {
		t.Reset()
	} else {
		s.tab = newTab()
	}
	s.dist = s.dist[:0]
	s.expandedMark = s.expandedMark[:0]
	s.parent = s.parent[:0]
	s.bq.reset()
	if cap(s.out) < e.nShards {
		s.out = make([]run, e.nShards)
	}
	s.out = s.out[:e.nShards]
	for i := range s.out {
		s.out[i].reset()
	}
	s.spare.reset()
}

// release returns the engine's solvers to the pool (no-op for oracle
// engines). Only called after run() fully assembled its Result, so no
// live memory escapes into the pool. References that would pin the
// instance or context alive are dropped; the arenas keep their capacity
// — that is the point — except past maxPooledArenaBytes, where the
// whole solver is dropped so one oversized search cannot pin its
// worst-case arenas on every later solve (pool_test.go regression).
func (e *engine) release() {
	if !e.pooled {
		return
	}
	for i, s := range e.shards {
		e.shards[i] = nil
		s.in, s.ctx = nil, nil
		s.eng = nil
		s.topo = nil
		if s.arenaBytes() > maxPooledArenaBytes {
			continue
		}
		solverPool.Put(s)
	}
}
