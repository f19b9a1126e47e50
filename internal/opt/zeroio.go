package opt

import (
	"context"
	"math"

	"repro/internal/dag"
	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// ZeroIOResult reports the outcome of the zero-I/O decision procedure.
type ZeroIOResult struct {
	// Feasible is true when a witness was found. On a partial run it is
	// false but means "not decided" — check Verdict, not this field, when
	// the search may have stopped early.
	Feasible bool
	// Verdict is the three-valued answer: feasible, infeasible, or
	// indeterminate when the search stopped on budget or cancellation.
	Verdict Verdict
	// Order is a witness compute order when feasible (nil otherwise).
	Order []dag.NodeID
	// States is the number of distinct computed-sets explored, including
	// the ones explored before an early stop.
	States int
	// Status reports whether the search completed or why it stopped.
	Status Status
}

// ZeroIO decides whether a one-shot SPP pebbling of I/O cost 0 exists for
// the DAG with fast memory r — the NP-hard decision problem at the heart
// of Theorem 2.
//
// A zero-cost one-shot pebbling uses no blue pebbles at all, and (as the
// proof of Theorem 2 observes) deletions are forced: a red pebble should
// be deleted exactly when all out-neighbors have been computed, except on
// sinks, which must keep their pebble to the end. A pebbling is therefore
// exactly a permutation of the compute steps, and the memory bound must
// hold after every prefix, where the pebbles alive after a prefix C are
//
//	live(C) = {v ∈ C : some successor ∉ C} ∪ {v ∈ C : v is a sink}.
//
// The search memoizes failed computed-sets; worst-case exponential, as it
// must be unless P = NP. maxStates bounds the number of distinct sets
// explored; exceeding it returns a partial result (explored-state count,
// indeterminate verdict) plus an error wrapping ErrBudget. Non-positive
// maxStates means unbounded, as for Config.MaxStates. The search
// polls ctx and likewise stops with an indeterminate partial result when
// it is canceled or its deadline passes.
//
// DAGs beyond the single-word mask capacity (62 nodes) are dispatched to
// the bitset-backed ZeroIOBig automatically; the two variants decide the
// same predicate.
func ZeroIO(ctx context.Context, g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	n := g.N()
	if n > zeroIOWordCap {
		// A single uint64 mask cannot hold the computed-set; fall through
		// to the bitset variant instead of truncating or refusing.
		return zeroIOBig(ctx, g, r, maxStates, nil)
	}
	if n == 0 {
		return &ZeroIOResult{Feasible: true, Verdict: VerdictFeasible}, nil
	}
	if maxStates <= 0 {
		maxStates = math.MaxInt
	}

	predMask := make([]uint64, n)
	succMask := make([]uint64, n)
	var sinkMask uint64
	for v := 0; v < n; v++ {
		for _, u := range g.Pred(dag.NodeID(v)) {
			predMask[v] |= 1 << uint(u)
		}
		for _, w := range g.Succ(dag.NodeID(v)) {
			succMask[v] |= 1 << uint(w)
		}
	}
	for _, v := range g.Sinks() {
		sinkMask |= 1 << uint(v)
	}
	full := uint64(1)<<uint(n) - 1

	// liveSet returns the mask of pebbles alive after computing exactly
	// the set C (with forced deletions applied). An incremental version
	// would be faster, but the closed form keeps the search obviously
	// correct; instances here are small by NP-hardness.
	liveSet := func(c uint64) uint64 {
		live := c & sinkMask
		rest := c &^ sinkMask
		for rest != 0 {
			v := trailingZeros(rest)
			rest &= rest - 1
			if succMask[v]&^c != 0 {
				live |= 1 << uint(v)
			}
		}
		return live
	}

	failed := hashtab.New(1, 256)
	var failedKey [1]uint64
	states := 0
	var order []dag.NodeID
	var rec func(c uint64) (bool, error)
	rec = func(c uint64) (bool, error) {
		if c == full {
			return true, nil
		}
		failedKey[0] = c
		if _, isFailed := failed.Find(failedKey[:]); isFailed {
			return false, nil
		}
		states++
		if states > maxStates {
			return false, budgetErr(states)
		}
		if states&ctxCheckMask == 0 && ctx.Err() != nil {
			return false, cancelErr(ctx, states)
		}
		live := liveSet(c)
		for v := 0; v < n; v++ {
			bit := uint64(1) << uint(v)
			if c&bit != 0 || predMask[v]&^c != 0 {
				continue
			}
			// Peak occupancy while computing v: everything alive before
			// the step (this includes all predecessors of v, which have
			// the uncomputed successor v) plus v's fresh pebble; forced
			// deletions only happen after the step.
			if popcount(live|bit) > r {
				continue
			}
			nc := c | bit
			ok, err := rec(nc)
			if err != nil {
				return false, err
			}
			if ok {
				order = append(order, dag.NodeID(v))
				return true, nil
			}
		}
		failedKey[0] = c
		failed.Insert(failedKey[:])
		return false, nil
	}

	if err := ctx.Err(); err != nil {
		return &ZeroIOResult{Verdict: VerdictIndeterminate, Status: StatusCanceled}, cancelErr(ctx, 0)
	}
	ok, err := rec(0)
	if err != nil {
		return &ZeroIOResult{States: states, Verdict: VerdictIndeterminate, Status: statusOfStop(err)}, err
	}
	res := &ZeroIOResult{Feasible: ok, States: states, Verdict: verdictOf(ok)}
	if ok {
		// order was accumulated in reverse (post-order of the successful
		// spine); reverse it into execution order.
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		res.Order = order
	}
	return res, nil
}

// zeroIOWordCap is the largest node count the single-uint64-mask solver
// accepts. 62 leaves headroom below the 64-bit word so `1<<n` arithmetic
// can never overflow, matching ExactWith's packed-state cap;
// larger DAGs auto-dispatch to the bitset variant.
const zeroIOWordCap = 62

// ZeroIOStrategy converts a witness order from ZeroIO into an executable
// one-shot SPP strategy (computes in order, deleting pebbles as soon as
// they die), suitable for validation via pebble.Replay.
func ZeroIOStrategy(g *dag.Graph, order []dag.NodeID) *pebble.Strategy {
	n := g.N()
	remSucc := make([]int, n)
	isSink := make([]bool, n)
	for v := 0; v < n; v++ {
		remSucc[v] = g.OutDegree(dag.NodeID(v))
	}
	for _, v := range g.Sinks() {
		isSink[v] = true
	}
	s := &pebble.Strategy{}
	for _, v := range order {
		s.Append(pebble.Compute(pebble.At(0, v)))
		for _, u := range g.Pred(v) {
			remSucc[u]--
			if remSucc[u] == 0 && !isSink[u] {
				s.Append(pebble.Delete(pebble.At(0, u)))
			}
		}
	}
	return s
}
