package opt

// Solver arena recycling.
//
// A search's dominant allocations are per-shard arenas: the state table,
// the distance/mark/parent arrays, the bucket queue's buckets, the
// dominance index and the expansion scratch. All of them reset in O(1)
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
// the next acquire starts fresh. 8 MiB keeps every benchmark-sized
// search pooled while letting million-state searches be reclaimed.
// A variable, not a const, so pool_test.go can lower it.
var maxPooledArenaBytes = int64(8 << 20)

// Per-element sizes for arenaBytes, matching the arena element types.
const (
	sliceHdrBytes   = 24 // slice header retained per held buffer
	bqEntryBytes    = 16 // bqEntry: int32 idx + int64 g, padded
	parentEdgeBytes = 40 // parentEdge: stateRef + Move header
)

// arenaBytes estimates the capacity this solver's recycled arenas pin:
// the state table, the per-state arrays, the bucket queue and the
// dominance index. Scratch buffers and cross-shard batches are O(n·k)
// and excluded. An estimate is all the retention cap needs.
func (s *solver) arenaBytes() int64 {
	var b int64
	if t, ok := s.tab.(*hashtab.Table); ok {
		b += t.ArenaBytes()
	}
	b += int64(cap(s.dist))*8 + sliceHdrBytes
	b += int64(cap(s.parent))*parentEdgeBytes + sliceHdrBytes
	b += int64(cap(s.expandedMark)) + sliceHdrBytes
	b += int64(cap(s.worklist))*bqEntryBytes + sliceHdrBytes
	b += int64(cap(s.waveExp))*4 + sliceHdrBytes
	for _, bucket := range s.bq.buckets {
		b += int64(cap(bucket))*bqEntryBytes + sliceHdrBytes
	}
	b += int64(cap(s.bq.buckets)) * sliceHdrBytes
	if s.dom != nil {
		b += int64(cap(s.dom.slots))*4 + int64(cap(s.dom.keys))*8
		b += int64(cap(s.dom.recs)) * 8
	}
	return b
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
	in, cfg := e.in, e.cfg
	s.in, s.ctx, s.cfg = in, e.ctx, cfg
	s.n = in.Graph.N()
	s.witness = cfg.Witness
	s.useDom = cfg.Dominance && !cfg.Witness
	s.async = cfg.Mode == ModeAsync
	s.eng, s.shard = e, shard
	s.pruned, s.expanded, s.reopened, s.pops = 0, 0, 0, 0
	s.domVisits = 0
	s.markers = 0
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
	s.worklist = s.worklist[:0]
	s.waveExp = s.waveExp[:0]
	if s.useDom {
		if s.dom == nil {
			s.dom = newDomIndex(in.K)
		} else {
			s.dom.reset(in.K)
		}
	}
	if e.nShards > 1 {
		if len(s.out) == e.nShards {
			for i := range s.out {
				s.out[i] = nil
				s.incoming[i] = s.incoming[i][:0]
			}
		} else {
			s.out = make([]*batch, e.nShards)
			s.incoming = make([][]*batch, e.nShards)
		}
	} else {
		s.out, s.incoming = nil, nil
	}
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
