package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/pebble"
)

// These tests pin the heuristic stack's contract: every mode is
// admissible (h(start) ≤ OPT, partial lower bounds ≤ OPT) and
// consistent (a one-shard search never re-expands), the max mode
// dominates the floor, lazy deletion never changes the optimum, and
// complete results collapse their bracket exactly.

func TestHeuristicModeStrings(t *testing.T) {
	for _, c := range []struct {
		mode HeuristicMode
		s    string
	}{{HeuristicFloor, "floor"}, {HeuristicIO, "io"}, {HeuristicMax, "max"}} {
		if c.mode.String() != c.s {
			t.Errorf("%v.String() = %q, want %q", c.mode, c.mode.String(), c.s)
		}
		m, ok := ParseHeuristicMode(c.s)
		if !ok || m != c.mode {
			t.Errorf("ParseHeuristicMode(%q) = %v, %v", c.s, m, ok)
		}
	}
	if _, ok := ParseHeuristicMode("bogus"); ok {
		t.Error("ParseHeuristicMode accepted garbage")
	}
	var zero HeuristicMode
	if zero != HeuristicMax {
		t.Error("zero HeuristicMode is not HeuristicMax")
	}
}

// TestRootLowerBoundAdmissibleZoo: h(start) ≤ OPT for every mode on every
// zoo instance, the max mode dominates the floor pointwise, and the root
// bound matches the structural bound from the bounds package.
func TestRootLowerBoundAdmissibleZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		ref, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var floor, max int64
		for _, mode := range []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax} {
			h := RootLowerBound(in, mode)
			if h < 0 {
				t.Errorf("%s: RootLowerBound(%v) = %d < 0", c.name, mode, h)
			}
			if h > ref.Cost {
				t.Errorf("%s: RootLowerBound(%v) = %d exceeds OPT %d (inadmissible)",
					c.name, mode, h, ref.Cost)
			}
			switch mode {
			case HeuristicFloor:
				floor = h
			case HeuristicMax:
				max = h
			}
		}
		if max < floor {
			t.Errorf("%s: max root bound %d below floor %d", c.name, max, floor)
		}
		if sl := bounds.StructuralLower(in); max < sl {
			t.Errorf("%s: max root bound %d below structural bound %d", c.name, max, sl)
		}
		if l1 := bounds.Lemma1Lower(in); RootLowerBound(in, HeuristicFloor) != l1 {
			t.Errorf("%s: floor root bound %d ≠ Lemma 1 lower %d",
				c.name, RootLowerBound(in, HeuristicFloor), l1)
		}
	}
}

// TestRootLowerBoundAdmissibleQuick extends the admissibility property to
// random instances: for every mode, h(start) ≤ OPT.
func TestRootLowerBoundAdmissibleQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := gen.RandomDAG(n, 0.3, 2, seed)
		k := 1 + rng.Intn(2)
		r := g.MaxInDegree() + 1 + rng.Intn(2)
		io := 1 + rng.Intn(5)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		ref, err := exactSeq(in, budget)
		if err != nil {
			return false
		}
		for _, mode := range []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax} {
			if h := RootLowerBound(in, mode); h > ref.Cost {
				t.Logf("seed %d: mode %v root bound %d > OPT %d", seed, mode, h, ref.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRootLowerBoundCliquePairs evaluates the heuristics on the E12
// clique-reduction instances (one-shot SPP, free computes, ample red
// capacity): with c = 0, a single sink and r ≫ 1 every term of the stack
// must vanish, and on YES instances OPT itself is 0 — the bound is tight.
func TestRootLowerBoundCliquePairs(t *testing.T) {
	pairs := []struct {
		name  string
		graph *hardness.UGraph
	}{
		{"triangle+pendant", hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})},
		{"C4", hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})},
		{"bull", hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}})},
		{"C5", hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})},
	}
	const q = 3
	for _, pc := range pairs {
		red, err := hardness.BuildCliqueReduction(pc.graph, q)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		in := pebble.MustInstance(red.Graph, pebble.OneShotSPP(red.R, 4))
		for _, mode := range []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax} {
			h := RootLowerBound(in, mode)
			if h != 0 {
				t.Errorf("%s: mode %v root bound %d, want 0 (free computes, ample capacity)",
					pc.name, mode, h)
			}
		}
		// On YES instances a zero-I/O pebbling exists, so OPT = 0 and the
		// bound above is exactly tight; on NO instances OPT > 0 and 0 is
		// still trivially admissible — both sides sit under Lemma 1.
		if zres, err := ZeroIO(context.Background(), red.Graph, red.R, 8_000_000); err == nil && zres.Feasible {
			if ub := bounds.Lemma1Upper(in); ub < 0 {
				t.Errorf("%s: Lemma 1 upper bound overflowed: %d", pc.name, ub)
			}
		}
	}
}

// TestDominancePreservesOptimum: the lazy-deletion normal form
// (Config.Dominance) must never change the proven optimum, only the
// work done — swept over random instances where red capacity is tight
// enough to force deletions.
func TestDominancePreservesOptimum(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := gen.RandomDAG(n, 0.4, 2, seed)
		k := 1 + rng.Intn(2)
		r := g.MaxInDegree() + 1 // tightest legal capacity: deletes required
		io := 1 + rng.Intn(4)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		on, err := ExactWith(context.Background(), in, Config{MaxStates: budget, Dominance: true})
		if err != nil {
			return false
		}
		off, err := ExactWith(context.Background(), in, Config{MaxStates: budget, Dominance: false})
		if err != nil {
			return false
		}
		if on.Cost != off.Cost {
			t.Logf("seed %d: lazy deletion on cost %d ≠ off cost %d", seed, on.Cost, off.Cost)
			return false
		}
		// States expanded usually shrink but are not monotone: the
		// normal form shifts which tie the queue pops first on the f = OPT plateau,
		// so no ≤ claim.
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteBracketInvariant: on StatusComplete the anytime bracket
// must collapse exactly — LowerBound == Cost == Incumbent — for every
// mode on every zoo instance.
func TestCompleteBracketInvariant(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, cfg := range exactConfigs(budget) {
			res, err := ExactWith(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.name, cfg.Heuristic, err)
			}
			if res.Status != StatusComplete {
				t.Fatalf("%s/%v: not complete", c.name, cfg.Heuristic)
			}
			if res.LowerBound != res.Cost || res.Incumbent != res.Cost {
				t.Errorf("%s/%v: complete bracket [%d, %d] does not collapse to cost %d",
					c.name, cfg.Heuristic, res.LowerBound, res.Incumbent, res.Cost)
			}
		}
	}
}

// TestHeuristicConsistencyZoo is the consistency gate. Admissibility
// alone keeps the engine exact, because an improved state is reopened;
// the monotone bucket queue and the claim that one shard never
// re-expands need every heuristic mode to be consistent. A consistent
// heuristic expands each state at its final distance, so over the zoo ×
// heuristic mode × dominance × witness every one-shard run must report
// ReExpanded == 0.
func TestHeuristicConsistencyZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, cfg := range exactConfigs(budget) {
			for _, witness := range []bool{false, true} {
				cfg.Witness = witness
				res, err := ExactWith(context.Background(), in, cfg)
				if err != nil {
					t.Fatalf("%s/%v dom=%v witness=%v: %v", c.name, cfg.Heuristic, cfg.Dominance, witness, err)
				}
				if res.ReExpanded != 0 {
					t.Errorf("%s/%v dom=%v witness=%v: %d re-expansions on one shard, want 0",
						c.name, cfg.Heuristic, cfg.Dominance, witness, res.ReExpanded)
				}
			}
		}
	}
}

// TestPartialBracketAcrossZoo is the regression test for the anytime
// invariant under the stronger heuristics: on every partial result, over
// the whole zoo × a budget ladder × every mode, LowerBound must not
// exceed Incumbent (when one exists) nor the true optimum.
func TestPartialBracketAcrossZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		ref, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, cfg := range exactConfigs(0) {
			prevLB := int64(0)
			for _, max := range []int{1, 3, 10, 50, 250, 1000} {
				cfg.MaxStates = max
				res, err := ExactWith(context.Background(), in, cfg)
				if err == nil {
					break // completed under this budget; larger ones only repeat it
				}
				if !IsPartial(err) {
					t.Fatalf("%s/%v budget %d: %v", c.name, cfg.Heuristic, max, err)
				}
				tag := c.name + "/" + cfg.Heuristic.String()
				incumbentOK(t, tag, res, ref.Cost)
				if res.LowerBound < prevLB {
					t.Errorf("%s: lower bound retreated %d → %d at budget %d",
						tag, prevLB, res.LowerBound, max)
				}
				prevLB = res.LowerBound
			}
		}
	}
}
