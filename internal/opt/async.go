package opt

// Asynchronous HDA* — the speculative "fast mode" engine selected by
// Config.Mode == ModeAsync.
//
// Sharding, routing batches, the atomic incumbent/budget/stop words and
// the admissible heuristic + dominance stack are all shared with the
// deterministic wave engine (parallel.go). What changes is the
// coordination discipline: there are no layers, no waves and no flush
// markers. Each shard loops pop → expand → route at full speed on
// whatever its queue holds, draining its inbox opportunistically. This
// removes the barrier stalls *and* the wave-synchronous expansion
// inflation (a wave must expand every same-f state before any cheaper
// successor information propagates; the async engine, like a sequential
// A*, sees relaxations as soon as they arrive).
//
// Exactness is kept by two rules:
//
//   - Re-expansion rule: a shard may expand a state before its final
//     distance is known (speculation). When a later relaxation improves
//     an already-expanded state's g, insert clears its expanded mark and
//     the state re-enters the queue to be expanded again with the better
//     g (Result.ReExpanded counts these). Since every improving path is
//     re-propagated, the usual A* invariant — when the global minimum
//     open f reaches the incumbent, no cheaper completion exists — still
//     holds; only the "each state expands once" efficiency guarantee is
//     given up.
//   - Termination by quiescence, not by layer barrier: the incumbent is
//     proven optimal when every queue entry below it is exhausted —
//     detected as "all shards idle and no batch in flight" below. At
//     that point the frontier minimum is ≥ the incumbent everywhere (an
//     idle shard, by definition, has no live entry below the incumbent),
//     which is exactly the deterministic engine's layer-barrier
//     optimality proof.
//
// Dominance pruning stays sound: a state is settled into the dominance
// index at every expansion, at the g it was expanded with, instead of
// at a wave boundary. A re-expansion at a lower g adds a record that
// covers, and so unlinks, the state's older one; the strict-inequality
// test only ever compares against a g some path really reached, so
// pruning never removes a state whose completions cannot be simulated
// (dominate.go).
//
// Quiescence detection — the busy/inflight/activity protocol:
//
//	busy      number of shards currently processing work
//	inflight  number of shipped batches not yet applied by a receiver
//	activity  epoch counter, bumped on every idle→busy transition
//
// Ordering rules: a sender increments inflight *before* the batch is
// placed in an inbox; a parked shard that receives a batch increments
// busy and activity *before* applying it, and decrements inflight only
// *after* the batch is fully applied. A parked shard declares global
// quiescence only after the four-step check (read activity; see busy ==
// 0; see inflight == 0; re-read activity unchanged): any batch applied
// concurrently either still counts in inflight, or its receiver's busy
// increment is visible, or the activity epoch moved — so "done" is never
// declared while work exists anywhere. Once declared, no shard can
// become busy again (inflight == 0 and no busy shard means nothing can
// be sent), so the flag is stable.
//
// Early stops (budget, cancellation) reuse the PR 5 atomics; the anytime
// [LowerBound, Incumbent] bracket stays sound because no frontier entry
// is ever lost: a popped entry is re-pushed when its expansion is
// refused, quitting shards divert unflushed/unapplied batches to the
// engine's leftover list instead of blocking on possibly-dead receivers,
// and the coordinator applies every leftover after the workers exit,
// before the bracket is assembled from the live queue minima.
//
// What is traded away, exactly: States, Pruned, ReExpanded, the witness
// trace and the partial-run bracket become timing-dependent (run-to-run
// and across worker counts). Cost, Status and — on complete runs — the
// optimality of the witness cost are unchanged; the async zoo
// equivalence test (async_test.go) locks ModeAsync to ModeDeterministic
// on exactly those fields under -race.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pebble"
)

// Mode selects the parallel engine's coordination discipline (see
// Config.Mode).
type Mode uint8

const (
	// ModeDeterministic is the wave-synchronous engine: results are
	// byte-identical for every worker count. The default.
	ModeDeterministic Mode = iota
	// ModeAsync is the speculative asynchronous engine: exact optima,
	// higher throughput, timing-dependent statistics and traces.
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

// ParseMode parses "deterministic" or "async" (the spelling used by
// cmd/mppexp's -mode flag and the server's job requests).
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "deterministic":
		return ModeDeterministic, true
	case "async":
		return ModeAsync, true
	}
	return ModeDeterministic, false
}

// expandOutcome is asyncExpand's verdict on one popped entry.
type expandOutcome uint8

const (
	expandOK      expandOutcome = iota // expanded (or charged and expanded)
	expandSkipped                      // stale / already expanded / goal
	expandStopped                      // refused: budget or cancel; entry re-pushed
)

// asyncExpand processes one popped queue entry: skip it if stale,
// already expanded or a goal; otherwise charge the budget and expand.
// When the charge is refused (budget exhausted or context canceled) the
// entry is pushed back so the frontier — and with it the anytime
// LowerBound — stays complete.
//
//mpp:hotpath
func (s *solver) asyncExpand(ent bqEntry, f int64) expandOutcome {
	if ent.g > s.dist[ent.idx] || s.expandedMark[ent.idx] {
		return expandSkipped
	}
	s.cur = append(s.cur[:0], s.tab.Key(int(ent.idx))...)
	if s.isGoal(s.cur) {
		// Goals are never expanded: their relaxation already offered the
		// incumbent, and expanding one could only find costlier states.
		return expandSkipped
	}
	s.pops++
	if s.pops&ctxCheckMask == 0 && s.ctx.Err() != nil {
		s.eng.requestStop(StatusCanceled)
		s.bq.push(f, ent.idx, ent.g)
		return expandStopped
	}
	if !s.countExpansion() {
		s.bq.push(f, ent.idx, ent.g)
		return expandStopped
	}
	s.expandedMark[ent.idx] = true
	s.expanded++
	if s.useDom {
		// Settle at every expansion, at its g (the wave engine settles
		// at wave boundaries): sound either way, and a reopened state's
		// cheaper record replaces its older one in the index.
		k := s.in.K
		s.dom.add(s.cur[k], s.cur[k+1], ent.g, s.cur[:k])
	}
	s.curIdx = ent.idx
	s.expand(ent.g)
	return expandOK
}

// runAsync is the async driver: one free-running goroutine per shard,
// coordinated only through the inboxes and the quiescence atomics. The
// coordinator just waits, then sweeps up leftovers and assembles the
// result from quiescent memory. A single shard runs its loop in place,
// with no goroutines: a plain sequential A* with incumbent pruning,
// whose nil inbox never delivers and whose first park proves quiescence.
func (e *engine) runAsync() (*Result, error) {
	if e.ctx.Err() != nil {
		e.requestStop(StatusCanceled)
		return e.partialResult(StatusCanceled, 0, false)
	}
	atomic.StoreInt64(&e.busy, int64(e.nShards))
	if e.nShards == 1 {
		e.shards[0].asyncLoop()
	} else {
		var wg sync.WaitGroup
		for _, s := range e.shards {
			wg.Add(1)
			go func(s *solver) {
				defer wg.Done()
				s.asyncLoop()
			}(s)
		}
		wg.Wait()
	}
	e.applyLeftovers()
	if atomic.LoadUint32(&e.doneFlag) != 0 {
		// Quiescence proven: every open entry is at f ≥ the incumbent
		// (or the space is exhausted), which is the optimality proof.
		return e.drained()
	}
	st := e.stopStatus()
	if st == StatusComplete {
		st = StatusCanceled // unreachable: workers exit only on done or stop
	}
	return e.partialResult(st, 0, false)
}

// asyncLoop is one shard's free-running worker: drain the inbox, pop the
// cheapest live entry below the incumbent, expand, repeat; park when out
// of useful work.
func (s *solver) asyncLoop() {
	e := s.eng
	for {
		s.asyncReceive()
		if e.asyncStopped() {
			s.asyncQuit()
			return
		}
		f, ok := s.bq.minF()
		if !ok || e.incumbentNow() <= f {
			// Nothing below the incumbent here: flush partial batches so
			// receivers (and the quiescence check) see them, then park.
			s.asyncFlush()
			if !s.asyncPark() {
				s.asyncQuit()
				return
			}
			continue
		}
		ent, ok := s.bq.popBucket(f)
		if !ok {
			continue
		}
		if s.asyncExpand(ent, f) == expandStopped {
			s.asyncQuit()
			return
		}
	}
}

// asyncReceive applies every batch currently waiting in this shard's
// inbox.
//
//mpp:hotpath
func (s *solver) asyncReceive() {
	for s.asyncDrainOne() {
	}
}

// asyncDrainOne applies one pending inbox batch, if any.
//
//mpp:hotpath
func (s *solver) asyncDrainOne() bool {
	select {
	case b := <-s.eng.inbox[s.shard]:
		s.asyncAccept(b)
		return true
	default:
		return false
	}
}

// asyncAccept applies a received batch and retires its inflight count.
// The inflight decrement must come last: until the batch's relaxations
// are queued, the quiescence check must still see the batch as work.
//
//mpp:hotpath
func (s *solver) asyncAccept(b *batch) {
	e := s.eng
	wpk := stateWords(s.in.K)
	for i := 0; i < b.n; i++ {
		var from stateRef
		var mv pebble.Move
		if s.witness {
			from, mv = b.froms[i], b.moves[i]
		}
		s.applyRemote(b.words[i*wpk:(i+1)*wpk], b.costs[i], from, mv)
	}
	e.putBatch(b)
	atomic.AddInt64(&e.inflight, -1)
}

// asyncFlush ships every partially filled outgoing batch.
func (s *solver) asyncFlush() {
	for dst, b := range s.out {
		if b == nil {
			continue
		}
		s.out[dst] = nil
		if b.n > 0 {
			s.asyncShip(dst, b)
		} else {
			s.eng.putBatch(b)
		}
	}
}

// asyncShip delivers a batch to dst's inbox, draining this shard's own
// inbox while the destination is full (the same no-circular-wait
// argument as send). If the search stops first, the batch goes to the
// engine's leftover list — the receiver may already have quit, and the
// coordinator applies leftovers after the workers exit.
func (s *solver) asyncShip(dst int, b *batch) {
	e := s.eng
	atomic.AddInt64(&e.inflight, 1)
	for {
		select {
		case e.inbox[dst] <- b:
			return
		default:
		}
		if e.asyncStopped() {
			atomic.AddInt64(&e.inflight, -1)
			e.addLeftover(b)
			return
		}
		if !s.asyncDrainOne() {
			runtime.Gosched()
		}
	}
}

// asyncPark marks this shard idle and waits for new work (true), or for
// the search to end (false) — either by the quiescence this shard just
// made possible or by an early stop. The four-step check is the
// termination protocol documented at the top of the file.
func (s *solver) asyncPark() bool {
	e := s.eng
	atomic.AddInt64(&e.busy, -1)
	for {
		select {
		case b := <-e.inbox[s.shard]:
			atomic.AddInt64(&e.busy, 1)
			atomic.AddInt64(&e.activity, 1)
			s.asyncAccept(b)
			return true
		default:
		}
		if e.asyncStopped() {
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

// asyncStopped reports whether the search has ended, by proven
// quiescence or by an early-stop request.
func (e *engine) asyncStopped() bool {
	return atomic.LoadUint32(&e.doneFlag) != 0 || e.stopStatus() != StatusComplete
}

// asyncQuit hands this shard's undelivered work to the coordinator: the
// partial outgoing batches and whatever still sits in its inbox. Nothing
// is applied here — the coordinator does that on quiescent memory — but
// nothing is dropped either, which is what keeps the anytime LowerBound
// admissible.
func (s *solver) asyncQuit() {
	e := s.eng
	for dst, b := range s.out {
		if b == nil {
			continue
		}
		s.out[dst] = nil
		if b.n > 0 {
			e.addLeftover(b)
		} else {
			e.putBatch(b)
		}
	}
	for {
		select {
		case b := <-e.inbox[s.shard]:
			e.addLeftover(b)
		default:
			return
		}
	}
}

// addLeftover parks a batch for the coordinator's post-exit sweep.
func (e *engine) addLeftover(b *batch) {
	e.leftMu.Lock()
	e.leftover = append(e.leftover, b)
	e.leftMu.Unlock()
}

// applyLeftovers drains every inbox and the leftover list and applies
// the batches to their owning shards. Runs on the coordinator after all
// workers exited, so the memory is quiescent — but the leftover list
// is still touched under leftMu (uncontended here, essentially free)
// so its guarded-by discipline holds at every site rather than relying
// on the join for visibility. The destination shard is recomputed from
// each candidate's words — ownerOf is a pure function, so this matches
// where the batch was headed.
func (e *engine) applyLeftovers() {
	e.leftMu.Lock()
	defer e.leftMu.Unlock()
	for i := range e.inbox {
		if e.inbox[i] == nil {
			continue
		}
		for drained := false; !drained; {
			select {
			case b := <-e.inbox[i]:
				e.leftover = append(e.leftover, b)
			default:
				drained = true
			}
		}
	}
	wpk := stateWords(e.in.K)
	for _, b := range e.leftover {
		for i := 0; i < b.n; i++ {
			w := b.words[i*wpk : (i+1)*wpk]
			dst := e.shards[e.ownerOf(w)]
			var from stateRef
			var mv pebble.Move
			if e.cfg.Witness {
				from, mv = b.froms[i], b.moves[i]
			}
			dst.applyRemote(w, b.costs[i], from, mv)
		}
		e.putBatch(b)
	}
	e.leftover = nil
}
