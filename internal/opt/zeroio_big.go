package opt

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/hashtab"
)

// ZeroIOBig is ZeroIO for DAGs of arbitrary size, using bitsets instead
// of single-word masks. It is used by the hardness reductions, whose
// instances exceed 62 nodes. Same semantics as ZeroIO, including anytime
// behavior: on budget or cancellation it returns the explored-state count
// with an indeterminate verdict.
func ZeroIOBig(ctx context.Context, g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	return zeroIOBig(ctx, g, r, maxStates, nil)
}

// zeroIOBig runs the search. failed overrides the failure memo (tests
// pass the map-backed hashtab.Ref oracle); nil selects the
// open-addressing table. The memo is keyed on the raw words of the
// computed-set bitset, appended into a reusable buffer — no per-state
// string key is ever built.
func zeroIOBig(ctx context.Context, g *dag.Graph, r int, maxStates int, failed hashtab.Index) (*ZeroIOResult, error) {
	n := g.N()
	if n == 0 {
		return &ZeroIOResult{Feasible: true, Verdict: VerdictFeasible}, nil
	}
	if err := ctx.Err(); err != nil {
		return &ZeroIOResult{Verdict: VerdictIndeterminate, Status: StatusCanceled}, cancelErr(ctx, 0)
	}
	isSink := make([]bool, n)
	for _, v := range g.Sinks() {
		isSink[v] = true
	}

	computed := bitset.New(n)
	live := bitset.New(n)
	remSucc := make([]int, n)
	remPred := make([]int, n)
	for v := 0; v < n; v++ {
		remSucc[v] = g.OutDegree(dag.NodeID(v))
		remPred[v] = g.InDegree(dag.NodeID(v))
	}

	keyWords := len(computed.AppendWords(nil))
	if failed == nil {
		failed = hashtab.New(keyWords, 1024)
	}
	keyBuf := make([]uint64, 0, keyWords)
	states := 0
	var order []dag.NodeID

	// Incremental live tracking: when v is computed, v becomes live; each
	// predecessor u with all successors computed (and not a sink) dies.
	// Dead predecessors are recorded on a shared stack — a frame is just
	// (v, stack watermark), so apply/undo never allocate.
	type frame struct {
		v         dag.NodeID
		diedStart int
	}
	var diedStack []dag.NodeID

	apply := func(v dag.NodeID) frame {
		fr := frame{v: v, diedStart: len(diedStack)}
		computed.Add(int(v))
		live.Add(int(v))
		for _, u := range g.Pred(v) {
			remSucc[u]--
			if remSucc[u] == 0 && !isSink[u] {
				live.Remove(int(u))
				diedStack = append(diedStack, u)
			}
		}
		for _, w := range g.Succ(v) {
			remPred[w]--
		}
		return fr
	}
	undo := func(fr frame) {
		for _, w := range g.Succ(fr.v) {
			remPred[w]++
		}
		for _, u := range g.Pred(fr.v) {
			remSucc[u]++
		}
		for _, u := range diedStack[fr.diedStart:] {
			live.Add(int(u))
		}
		diedStack = diedStack[:fr.diedStart]
		live.Remove(int(fr.v))
		computed.Remove(int(fr.v))
	}

	// Twin canonicalization: nodes with identical predecessor and
	// successor lists are interchangeable; restrict schedules to compute
	// each twin class in ascending ID order. This is a pure symmetry
	// reduction (any schedule can be relabeled within a class).
	prevTwin := make([]dag.NodeID, n)
	{
		classes := map[string]dag.NodeID{}
		for v := 0; v < n; v++ {
			sig := make([]byte, 0, 4*(g.InDegree(dag.NodeID(v))+g.OutDegree(dag.NodeID(v))+1))
			for _, u := range g.Pred(dag.NodeID(v)) {
				sig = append(sig, byte(u), byte(u>>8), byte(u>>16), 'p')
			}
			sig = append(sig, '|')
			for _, w := range g.Succ(dag.NodeID(v)) {
				sig = append(sig, byte(w), byte(w>>8), byte(w>>16), 's')
			}
			key := string(sig)
			if prev, ok := classes[key]; ok {
				prevTwin[v] = prev
			} else {
				prevTwin[v] = -1
			}
			classes[key] = dag.NodeID(v)
		}
	}
	allowed := func(v int) bool {
		return prevTwin[v] < 0 || computed.Contains(int(prevTwin[v]))
	}

	// deaths returns how many pebbles computing v would free immediately.
	deaths := func(v dag.NodeID) int {
		d := 0
		for _, u := range g.Pred(v) {
			if remSucc[u] == 1 && !isSink[u] {
				d++
			}
		}
		return d
	}

	var rec func() (bool, error)
	rec = func() (bool, error) {
		if computed.Count() == n {
			return true, nil
		}
		keyBuf = computed.AppendWords(keyBuf[:0])
		if _, isFailed := failed.Find(keyBuf); isFailed {
			return false, nil
		}
		states++
		if states > maxStates {
			return false, budgetErr(states)
		}
		if states&ctxCheckMask == 0 && ctx.Err() != nil {
			return false, cancelErr(ctx, states)
		}
		liveCount := live.Count()
		// Dominance rule: a computable node whose computation immediately
		// frees at least one pebble (net ≤ 0) can always be scheduled
		// first — delaying it never helps (standard exchange argument:
		// moving it earlier only lowers the live profile of every later
		// prefix). Branch solely on the first such node when one exists.
		if liveCount+1 <= r {
			for v := 0; v < n; v++ {
				if computed.Contains(v) || remPred[v] != 0 || !allowed(v) || deaths(dag.NodeID(v)) == 0 {
					continue
				}
				fr := apply(dag.NodeID(v))
				ok, err := rec()
				if err != nil {
					undo(fr)
					return false, err
				}
				if ok {
					order = append(order, dag.NodeID(v))
				} else {
					// Deeper calls clobbered keyBuf; rebuild this state's
					// key (apply is still in effect, so undo first).
					undo(fr)
					keyBuf = computed.AppendWords(keyBuf[:0])
					failed.Insert(keyBuf)
					return false, nil
				}
				undo(fr)
				return true, nil
			}
		}
		for v := 0; v < n; v++ {
			if computed.Contains(v) || remPred[v] != 0 || !allowed(v) {
				continue
			}
			// Peak while computing v: current live + v's fresh pebble
			// (v's predecessors are all live: they have the uncomputed
			// successor v).
			if liveCount+1 > r {
				continue
			}
			fr := apply(dag.NodeID(v))
			ok, err := rec()
			if err != nil {
				undo(fr)
				return false, err
			}
			if ok {
				order = append(order, dag.NodeID(v))
				undo(fr)
				return true, nil
			}
			undo(fr)
		}
		keyBuf = computed.AppendWords(keyBuf[:0])
		failed.Insert(keyBuf)
		return false, nil
	}
	ok, err := rec()
	if err != nil {
		return &ZeroIOResult{States: states, Verdict: VerdictIndeterminate, Status: statusOfStop(err)}, err
	}
	res := &ZeroIOResult{Feasible: ok, States: states, Verdict: verdictOf(ok)}
	if ok {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		res.Order = order
	}
	return res, nil
}
