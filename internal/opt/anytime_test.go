package opt

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// These tests pin the anytime contract: an interrupted search must
// return a usable partial result — an incumbent/lower-bound bracket for
// ExactWith, an explicit indeterminate verdict for the zero-I/O deciders —
// behind a typed error, and the partial trajectory must stay
// byte-identical between the open-addressing table and the map-backed
// oracle.

// incumbentOK checks the bracket invariants of a partial Result against
// the proven optimum of a completed run.
func incumbentOK(t *testing.T, tag string, res *Result, optCost int64) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s: partial stop returned nil result", tag)
	}
	if !res.Status.Partial() {
		t.Errorf("%s: status %v is not partial", tag, res.Status)
	}
	if res.LowerBound > optCost {
		t.Errorf("%s: lower bound %d exceeds OPT %d (inadmissible)", tag, res.LowerBound, optCost)
	}
	if res.Incumbent >= 0 {
		if res.Incumbent < optCost {
			t.Errorf("%s: incumbent %d beats OPT %d (replay would be invalid)", tag, res.Incumbent, optCost)
		}
		if res.LowerBound > res.Incumbent {
			t.Errorf("%s: inverted bracket [%d, %d]", tag, res.LowerBound, res.Incumbent)
		}
		if res.Cost != res.Incumbent {
			t.Errorf("%s: partial Cost %d ≠ Incumbent %d", tag, res.Cost, res.Incumbent)
		}
	}
}

func TestExactAnytimeBudget(t *testing.T) {
	g := gen.Grid2D(2, 3)
	in := pebble.MustInstance(g, pebble.MPP(2, 3, 2))
	full, err := exactSeq(in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusComplete || full.Status.Partial() {
		t.Fatalf("complete run has status %v", full.Status)
	}
	if full.Incumbent != full.Cost || full.LowerBound != full.Cost {
		t.Fatalf("complete run bracket [%d, %d] should collapse to cost %d",
			full.LowerBound, full.Incumbent, full.Cost)
	}

	// Increasing budgets: every stop is typed, every bracket valid, the
	// incumbent never worsens and the lower bound never retreats as the
	// search sees more (the traversal is deterministic, so a larger
	// budget explores a superset).
	prevInc := int64(-1)
	prevLB := int64(0)
	for _, max := range []int{1, 2, 10, 100, 1000} {
		res, err := exactSeq(in, max)
		if err == nil {
			if max >= full.States {
				break
			}
			t.Fatalf("budget %d (< %d states) unexpectedly completed", max, full.States)
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: error %v does not wrap ErrBudget", max, err)
		}
		if !IsPartial(err) {
			t.Fatalf("budget %d: IsPartial false for %v", max, err)
		}
		if res.Status != StatusBudget {
			t.Errorf("budget %d: status %v, want StatusBudget", max, res.Status)
		}
		incumbentOK(t, "budget", res, full.Cost)
		if prevInc >= 0 && (res.Incumbent < 0 || res.Incumbent > prevInc) {
			t.Errorf("budget %d: incumbent worsened %d → %d", max, prevInc, res.Incumbent)
		}
		if res.LowerBound < prevLB {
			t.Errorf("budget %d: lower bound retreated %d → %d", max, prevLB, res.LowerBound)
		}
		prevInc, prevLB = res.Incumbent, res.LowerBound
	}

	// Witness mode under budget: any strategy handed back must replay to
	// the incumbent, not to garbage.
	res, err := witnessSeq(in, 200)
	if errors.Is(err, ErrBudget) && res.Strategy != nil {
		rep, rerr := pebble.Replay(in, res.Strategy)
		if rerr != nil {
			t.Fatalf("partial witness does not replay: %v", rerr)
		}
		if rep.Cost != res.Incumbent {
			t.Errorf("partial witness replays to %d, incumbent says %d", rep.Cost, res.Incumbent)
		}
	}
}

func TestExactAnytimeCancel(t *testing.T) {
	g := gen.Grid2D(2, 3)
	in := pebble.MustInstance(g, pebble.MPP(2, 3, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExactWith(ctx, in, seqConfig(budget))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if !IsPartial(err) {
		t.Fatalf("cancelled ctx: IsPartial false for %v", err)
	}
	if res == nil || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want StatusCanceled", res)
	}
	if res.Incumbent != -1 {
		t.Errorf("cancelled-before-start run found incumbent %d", res.Incumbent)
	}
}

// TestExactOraclePartialEquivalence locks the anytime trajectory itself
// to the oracle: an early budget stop must leave both state tables at a
// byte-identical (Cost, States, Incumbent, LowerBound, Status).
func TestExactOraclePartialEquivalence(t *testing.T) {
	g := gen.Grid2D(3, 3)
	in := pebble.MustInstance(g, pebble.MPP(1, 4, 2))
	for _, max := range []int{1, 5, 50, 500, 5000} {
		got, gerr := exactSeq(in, max)
		want, werr := exactOracle(in, seqConfig(max))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("budget %d: table err %v, oracle err %v", max, gerr, werr)
		}
		if got.Cost != want.Cost || got.States != want.States ||
			got.Incumbent != want.Incumbent || got.LowerBound != want.LowerBound ||
			got.Status != want.Status {
			t.Errorf("budget %d: table (cost %d, states %d, inc %d, lb %d, %v) ≠ oracle (cost %d, states %d, inc %d, lb %d, %v)",
				max, got.Cost, got.States, got.Incumbent, got.LowerBound, got.Status,
				want.Cost, want.States, want.Incumbent, want.LowerBound, want.Status)
		}
	}
}

func TestZeroIOAnytime(t *testing.T) {
	g := gen.Pyramid(4)
	const r = 5 // tight: forces real search before the infeasible verdict

	res, err := ZeroIO(context.Background(), g, r, 1)
	if !errors.Is(err, ErrBudget) || !IsPartial(err) {
		t.Fatalf("budget 1: error %v does not wrap ErrBudget", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusBudget {
		t.Fatalf("budget 1: result %+v, want indeterminate/StatusBudget", res)
	}
	if res.Feasible || res.Order != nil {
		t.Errorf("budget 1: partial result claims a witness: %+v", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = ZeroIO(ctx, g, r, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want indeterminate/StatusCanceled", res)
	}

	// Complete runs carry definite verdicts both ways.
	res, err = ZeroIO(context.Background(), g, r, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictInfeasible || res.Status != StatusComplete {
		t.Fatalf("pyramid4 r=%d: %+v, want infeasible/complete", r, res)
	}
	res, err = ZeroIO(context.Background(), g, r+1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFeasible || !res.Feasible {
		t.Fatalf("pyramid4 r=%d: %+v, want feasible", r+1, res)
	}
}

func TestZeroIOBigAnytime(t *testing.T) {
	g := gen.Pyramid(4)
	const r = 5

	res, err := ZeroIOBig(context.Background(), g, r, 1)
	if !errors.Is(err, ErrBudget) || !IsPartial(err) {
		t.Fatalf("budget 1: error %v does not wrap ErrBudget", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusBudget {
		t.Fatalf("budget 1: result %+v, want indeterminate/StatusBudget", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = ZeroIOBig(ctx, g, r, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want indeterminate/StatusCanceled", res)
	}

	// Small-mask and bitset variants agree on the decision and on the
	// explored-state count for an in-capacity DAG.
	small, err := ZeroIO(context.Background(), g, r, budget)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ZeroIOBig(context.Background(), g, r, budget)
	if err != nil {
		t.Fatal(err)
	}
	if small.Feasible != big.Feasible {
		t.Errorf("variants disagree: word %v, bitset %v", small.Feasible, big.Feasible)
	}
}

// TestZeroIOWordBoundary sweeps the single-word capacity edge: n = 61
// and 62 stay on the uint64-mask fast path, n = 63 and 64 must silently
// dispatch to the bitset variant and still decide correctly.
func TestZeroIOWordBoundary(t *testing.T) {
	for _, n := range []int{61, 62, 63, 64} {
		g := gen.Chain(n)
		// r = 2 suffices for a chain (live set is the frontier node plus
		// its successor); r = 1 cannot even hold an edge.
		res, err := ZeroIO(context.Background(), g, 2, budget)
		if err != nil {
			t.Fatalf("chain%d r=2: %v", n, err)
		}
		if !res.Feasible || res.Verdict != VerdictFeasible {
			t.Errorf("chain%d r=2: %+v, want feasible", n, res)
		}
		if len(res.Order) != n {
			t.Errorf("chain%d: witness order has %d nodes", n, len(res.Order))
		}
		if s := ZeroIOStrategy(g, res.Order); s != nil {
			in := pebble.MustInstance(g, pebble.OneShotSPP(2, 1))
			rep, rerr := pebble.Replay(in, s)
			if rerr != nil {
				t.Errorf("chain%d: witness strategy invalid: %v", n, rerr)
			} else if rep.IOMoves != 0 {
				t.Errorf("chain%d: witness strategy pays %d I/O moves", n, rep.IOMoves)
			}
		}
		res2, err := ZeroIO(context.Background(), g, 1, budget)
		if err != nil {
			t.Fatalf("chain%d r=1: %v", n, err)
		}
		if res2.Feasible || res2.Verdict != VerdictInfeasible {
			t.Errorf("chain%d r=1: %+v, want infeasible", n, res2)
		}
		// Above capacity the dispatch target is ZeroIOBig; the two entry
		// points must agree exactly.
		if n > zeroIOWordCap {
			big, err := ZeroIOBig(context.Background(), g, 2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if big.Feasible != res.Feasible || big.States != res.States || !sameOrder(big.Order, res.Order) {
				t.Errorf("chain%d: ZeroIO dispatch (states %d) ≠ ZeroIOBig (states %d)",
					n, res.States, big.States)
			}
		}
	}
}
