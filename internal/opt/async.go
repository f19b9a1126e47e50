package opt

// The search loop: engine.run runs one loop per shard — pop the
// cheapest live entry, expand it, route its candidates — on one shard
// inline, or on W > 1 shards as one free-running goroutine each
// (parallel.go has the shared engine half and the mailboxes, and says
// when each applies).
//
// One shard is a sequential A*. Its bucket queue pops f in
// non-decreasing order (the heuristic stack is consistent), and inside
// an f-bucket the deepest g first, latest push first among equals. That
// keeps the search depth-first across an f-plateau: the deepest open
// state is expanded first, so the first goal (and with it incumbent
// pruning) comes after a short walk of the f = OPT plateau rather than
// a sweep of it (statetable.go). The run ends when no live entry below
// the incumbent is left: its first park proves quiescence, and the
// incumbent is the optimum. A consistent heuristic expands every state
// at its final distance, so a one-shard run never re-expands
// (TestHeuristicConsistencyZoo checks ReExpanded == 0 for every
// heuristic mode).
//
// W > 1 shards make that loop speculative HDA*, with no barriers: each
// shard loops pop → expand → route at full speed on whatever its queue
// holds, taking its mailbox whenever candidates wait there.
// Exactness is kept by two rules:
//
//   - Re-expansion rule: a shard may expand a state before its final
//     distance is known (speculation). When a later relaxation improves
//     an already-expanded state's g, relax clears its expanded mark and
//     the state re-enters the queue to be expanded again with the better
//     g (Result.ReExpanded counts these). Since every improving path is
//     re-propagated, the usual A* invariant — when the global minimum
//     open f reaches the incumbent, no cheaper completion exists — still
//     holds; only the "each state expands once" efficiency guarantee is
//     given up.
//   - Termination by quiescence: the incumbent is proven optimal when
//     every queue entry below it is exhausted — detected as "all shards
//     idle and no candidate in flight" below. At that point the frontier
//     minimum is ≥ the incumbent everywhere (an idle shard, by
//     definition, has no live entry below the incumbent), which is the
//     A* optimality proof.
//
// The search prunes no candidate against another state: a candidate is
// rejected only when its own state is known at a distance no greater
// than its cost (solver.relax). What keeps the space small is the move
// set, the lazy-deletion and maximal-move normal forms (expand), which
// hold on every shard alike.
//
// Quiescence detection — the busy/inflight/activity protocol:
//
//	busy      number of shards currently processing work
//	inflight  number of shipped candidates not yet applied by their owner
//	activity  epoch counter, bumped on every idle→busy transition
//
// Ordering rules: a sender adds to inflight *before* its candidates
// enter a mailbox; a parked shard that takes candidates increments busy
// and activity *before* applying them, and subtracts them from inflight
// only *after* they are all applied. A parked shard declares global
// quiescence only after the four-step check (read activity; see busy ==
// 0; see inflight == 0; re-read activity unchanged): any candidate
// applied concurrently either still counts in inflight, or its owner's
// busy increment is visible, or the activity epoch moved — so "done" is
// never declared while work exists anywhere. Once declared, no shard can
// become busy again (inflight == 0 and no busy shard means nothing can
// be sent), so the flag is stable.
//
// Early stops (budget, cancellation) keep the anytime [LowerBound,
// Incumbent] bracket sound because no frontier entry is ever lost: a
// popped entry is re-pushed when its expansion is refused, a stopping
// shard ships its outgoing runs (a ship never waits on the owner, which
// may have quit), and after the workers exit the coordinator applies
// each mailbox to its own shard, before the bracket is assembled from
// the live queue minima.
//
// What W > 1 trades away, exactly: States, Pruned, ReExpanded, the
// witness trace and the partial-run bracket become timing-dependent
// (run-to-run and across worker counts). Cost, Status and — on complete
// runs — the optimality of the witness cost are unchanged; the async
// zoo tests (async_test.go) lock them to the one-shard run under -race.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Mode selects how many shards the engine runs on (see Config.Mode).
type Mode uint8

const (
	// ModeDeterministic runs the engine on one shard, whatever
	// Config.Workers says: short of a deadline or cancel, every Result
	// field is a pure function of the instance and the result-affecting
	// config. The default.
	ModeDeterministic Mode = iota
	// ModeAsync shards the search across Config.Workers goroutines:
	// exact optima, multicore throughput, timing-dependent statistics
	// and traces when Workers > 1.
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeAsync:
		return "async"
	default:
		return "deterministic"
	}
}

// ParseMode parses "deterministic" or "async" (the spelling of
// cmd/mppexp's -mode flag).
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "deterministic":
		return ModeDeterministic, true
	case "async":
		return ModeAsync, true
	}
	return ModeDeterministic, false
}

// expandEntry processes one popped queue entry: skip it if stale,
// already expanded or a goal; otherwise charge the budget and expand.
// When the charge is refused (budget exhausted or context canceled), or
// ctx stops the expansion part-way, the entry is pushed back so the
// frontier — and with it the anytime LowerBound — stays complete, and
// expandEntry returns false.
//
//mpp:hotpath
func (s *solver) expandEntry(ent bqEntry, f int64) bool {
	if ent.g > s.dist[ent.idx] || s.expandedMark[ent.idx] {
		return true
	}
	s.cur = append(s.cur[:0], s.tab.Key(int(ent.idx))...)
	if s.isGoal(s.cur) {
		// Goals are never expanded: their relaxation already offered the
		// incumbent, and expanding one could only find costlier states.
		return true
	}
	s.ticks++
	if s.ticks&ctxCheckMask == 0 && s.ctx.Err() != nil {
		s.eng.requestStop(StatusCanceled)
		s.bq.push(f, ent.idx, ent.g)
		return false
	}
	if !s.countExpansion() {
		s.bq.push(f, ent.idx, ent.g)
		return false
	}
	s.expandedMark[ent.idx] = true
	s.curRef = stateRef{shard: s.shard, idx: ent.idx}
	if !s.expand(ent.g) {
		// ctx stopped the expansion part-way. The entry goes back
		// unexpanded and uncharged, so the frontier still covers the
		// successors not yet generated.
		s.expandedMark[ent.idx] = false
		atomic.AddInt64(&s.eng.expandedTotal, -1)
		s.eng.requestStop(StatusCanceled)
		s.bq.push(f, ent.idx, ent.g)
		return false
	}
	return true
}

// run seeds the start state and runs the search: one free-running
// goroutine per shard, coordinated only through the mailboxes and the
// quiescence atomics. The coordinator waits, applies each mailbox to
// its own shard, and assembles the result from quiescent memory. A
// single shard runs its loop in place, with no goroutines: a plain
// sequential A* with incumbent pruning, whose mailbox stays empty and
// whose first park proves quiescence.
//
//mpp:deterministic
func (e *engine) run() (*Result, error) {
	start := make([]uint64, stateWords(e.in.K))
	owner := e.shards[e.ownerOf(start)]
	owner.relax(start, 0, stateRef{idx: -1})
	if e.ctx.Err() != nil {
		e.requestStop(StatusCanceled)
		return e.partialResult(StatusCanceled)
	}
	atomic.StoreInt64(&e.busy, int64(e.nShards))
	if e.nShards == 1 {
		owner.loop()
	} else {
		var wg sync.WaitGroup
		for _, s := range e.shards {
			wg.Add(1)
			go func(s *solver) {
				defer wg.Done()
				s.loop()
			}(s)
		}
		wg.Wait()
	}
	for _, s := range e.shards {
		if s.take() {
			s.apply()
		}
	}
	if atomic.LoadUint32(&e.doneFlag) != 0 {
		// Quiescence proven: every open entry is at f ≥ the incumbent
		// (or the space is exhausted), which is the optimality proof.
		return e.drained()
	}
	st := e.stopStatus()
	if st == StatusComplete {
		st = StatusCanceled // unreachable: workers exit only on done or stop
	}
	return e.partialResult(st)
}

// loop is one shard's free-running worker: apply the mailbox, pop the
// cheapest live entry below the incumbent, expand, repeat; park when out
// of useful work. Every exit ships the outgoing runs, so the coordinator
// finds each candidate in its owner's mailbox.
func (s *solver) loop() {
	e := s.eng
	defer s.flush()
	for {
		if s.take() {
			s.apply()
		}
		if e.stopped() {
			return
		}
		f, ok := s.bq.minF()
		if !ok || e.incumbentNow() <= f {
			// Nothing below the incumbent here: ship partial runs so
			// their owners (and the quiescence check) see them, then park.
			s.flush()
			if !s.park() {
				return
			}
			continue
		}
		ent, ok := s.bq.popBucket(f)
		if ok && !s.expandEntry(ent, f) {
			return
		}
	}
}

// park marks this shard idle and waits for new work (true), or for the
// search to end (false) — either by the quiescence this shard just made
// possible or by an early stop. The four-step check is the termination
// protocol documented at the top of the file.
func (s *solver) park() bool {
	e := s.eng
	atomic.AddInt64(&e.busy, -1)
	for {
		if s.take() {
			atomic.AddInt64(&e.busy, 1)
			atomic.AddInt64(&e.activity, 1)
			s.apply()
			return true
		}
		if e.stopped() {
			return false
		}
		a1 := atomic.LoadInt64(&e.activity)
		if atomic.LoadInt64(&e.busy) == 0 &&
			atomic.LoadInt64(&e.inflight) == 0 &&
			atomic.LoadInt64(&e.activity) == a1 {
			atomic.StoreUint32(&e.doneFlag, 1)
			return false
		}
		runtime.Gosched()
	}
}

// stopped reports whether the search has ended, by proven quiescence or
// by an early-stop request.
func (e *engine) stopped() bool {
	return atomic.LoadUint32(&e.doneFlag) != 0 || e.stopStatus() != StatusComplete
}
