package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
	"repro/internal/sched"
)

const budget = 2_000_000

func TestExactChain(t *testing.T) {
	// A chain with r ≥ 2 is pebbled with n computes and no I/O; with
	// compute cost 1, OPT = n.
	for _, n := range []int{1, 2, 5} {
		in := pebble.MustInstance(gen.Chain(n), pebble.MPP(1, 2, 3))
		res, err := exactSeq(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != int64(n) {
			t.Errorf("chain %d: OPT = %d, want %d", n, res.Cost, n)
		}
	}
}

func TestExactTwoChainsTwoProcs(t *testing.T) {
	// Two independent chains of length 3: one processor pays 6 computes
	// plus parking the first chain's sink (sinks must stay pebbled): with
	// r = 2 and g = 3, writing it costs 3 and recomputing the second
	// chain's prefix later also costs 3 — OPT(1) = 9 either way. Two
	// processors pay 3 parallel compute moves, keeping one sink red on
	// each shade.
	g := gen.IndependentChains(2, 3)
	in1 := pebble.MustInstance(g, pebble.MPP(1, 2, 3))
	r1, err := exactSeq(in1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != 9 {
		t.Errorf("OPT(1) = %d, want 9", r1.Cost)
	}
	in2 := pebble.MustInstance(g, pebble.MPP(2, 2, 3))
	r2, err := exactSeq(in2, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cost != 3 {
		t.Errorf("OPT(2) = %d, want 3", r2.Cost)
	}
}

func TestExactDiamond(t *testing.T) {
	// Diamond 0→{1,2}→3 with r=3, k=1: computes 0,1,2 need 3 pebbles but
	// node 3 needs 1,2 red plus itself: compute 0, 1, 2 (0 still red),
	// delete 0, compute 3: 4 computes, no I/O. OPT = 4.
	b := dag.NewBuilder("diamond")
	v := b.AddNodes(4)
	b.AddEdge(v[0], v[1])
	b.AddEdge(v[0], v[2])
	b.AddEdge(v[1], v[3])
	b.AddEdge(v[2], v[3])
	g := b.MustBuild()
	in := pebble.MustInstance(g, pebble.MPP(1, 3, 5))
	res, err := exactSeq(in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 4 {
		t.Errorf("diamond OPT = %d, want 4", res.Cost)
	}
}

func TestExactForcedIO(t *testing.T) {
	// A 2-layer DAG: 3 sources all feeding 2 sinks, r = 4, k = 1.
	// Computing sink 1 occupies 4 pebbles (3 sources + sink); the second
	// sink then needs the sources again. With r=4 one source must be
	// dropped... actually sink1's pebble can be written out (g) or the
	// dropped source recomputed (1). With recomputation allowed OPT
	// avoids I/O entirely: compute 3 sources, sink1, delete sink1? — no,
	// sinks must stay pebbled. OPT: compute s1,s2,s3,sink1 (4 red), write
	// sink1 (g) or... recompute path: delete a source, but then sink2
	// cannot be computed without it. So OPT = 5 computes + cheapest way
	// to park sink1 = min(g, impossible) → 5 + g with g small, or with
	// g large... there is no recompute alternative for parking a sink.
	// OPT = 5·1 + g.
	b := dag.NewBuilder("3to2")
	src := b.AddNodes(3)
	snk := b.AddNodes(2)
	for _, u := range src {
		for _, v := range snk {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	for _, ioCost := range []int{1, 4} {
		in := pebble.MustInstance(g, pebble.MPP(1, 4, ioCost))
		res, err := exactSeq(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(5 + ioCost)
		if res.Cost != want {
			t.Errorf("g=%d: OPT = %d, want %d", ioCost, res.Cost, want)
		}
	}
}

func TestExactRecomputationBeatsIO(t *testing.T) {
	// Same 3→2 bipartite but sinks feed a final collector so they need
	// not be parked... simpler: source shared by two far-apart consumers
	// in a chain; with huge g, recomputing the source is optimal; with
	// g=0 I/O is free. Verify OPT(g=0) ≤ OPT(g=10) and that with g=10
	// the optimum equals pure-compute cost with recomputation.
	//
	//   s → a1, s → a3;  chain a1→a2→a3  (r = 2... a3 needs a2 and s: Δin=2 → r≥3)
	b := dag.NewBuilder("recomp")
	s := b.AddNode()
	a1 := b.AddNode()
	a2 := b.AddNode()
	a3 := b.AddNode()
	b.AddEdge(s, a1)
	b.AddEdge(a1, a2)
	b.AddEdge(a2, a3)
	b.AddEdge(s, a3)
	g := b.MustBuild()
	// r=3: s,a1 red; a2 red; for a3 need a2,s: s can stay red the whole
	// time with r=3: s,a1 → s,a1,a2 → delete a1 → s,a2,a3. No I/O, no
	// recompute: OPT = 4 regardless of g.
	in := pebble.MustInstance(g, pebble.MPP(1, 3, 10))
	res, err := exactSeq(in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 4 {
		t.Errorf("OPT = %d, want 4", res.Cost)
	}
}

func TestExactZipperRecomputation(t *testing.T) {
	// Zipper d=2 without tails, chain 3, r=d+2=4, k=1, g=5: recomputing
	// the 2 swapped-out inputs costs 2 per swap versus 2g=10 via I/O, so
	// the optimum recomputes. Pure compute cost: inputs 2d=4 computed
	// once + chain 3 + recomputations. Just assert OPT < any-I/O cost and
	// equals the exact solver across two g values (g only matters if I/O
	// is used; OPT must be identical for g=5 and g=50).
	g, _ := gen.Zipper(2, 3, 0)
	in5 := pebble.MustInstance(g, pebble.MPP(1, 4, 5))
	r5, err := exactSeq(in5, budget)
	if err != nil {
		t.Fatal(err)
	}
	in50 := pebble.MustInstance(g, pebble.MPP(1, 4, 50))
	r50, err := exactSeq(in50, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Cost != r50.Cost {
		t.Errorf("OPT uses I/O despite cheap recomputation: g=5 → %d, g=50 → %d", r5.Cost, r50.Cost)
	}
}

func TestExactNeverAboveHeuristics(t *testing.T) {
	// Ground truth: OPT ≤ every heuristic on random small instances.
	schedulers := []sched.Scheduler{
		sched.Baseline{},
		sched.Greedy{},
		sched.Partitioned{Assign: sched.AssignAllToOne, AssignName: "one"},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := gen.RandomDAG(n, 0.3, 2, seed)
		k := 1 + rng.Intn(2)
		r := g.MaxInDegree() + 1 + rng.Intn(2)
		io := 1 + rng.Intn(3)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		res, err := exactSeq(in, budget)
		if err != nil {
			t.Logf("seed %d: exact failed: %v", seed, err)
			return false
		}
		lb := bounds.Lemma1Lower(in)
		if res.Cost < lb {
			t.Logf("seed %d: OPT %d below trivial bound %d", seed, res.Cost, lb)
			return false
		}
		for _, s := range schedulers {
			rep, err := sched.Run(s, in)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, s.Name(), err)
				return false
			}
			if rep.Cost < res.Cost {
				t.Logf("seed %d: %s cost %d beat 'optimal' %d", seed, s.Name(), rep.Cost, res.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExactBudget(t *testing.T) {
	g := gen.Grid2D(4, 4)
	in := pebble.MustInstance(g, pebble.MPP(2, 3, 2))
	res, err := exactSeq(in, 10)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res == nil || res.Status != StatusBudget {
		t.Fatalf("res = %+v, want Status %v", res, StatusBudget)
	}
}

func TestExactEmptyAndTooBig(t *testing.T) {
	empty := dag.NewBuilder("e").MustBuild()
	in := pebble.MustInstance(empty, pebble.MPP(1, 1, 1))
	res, err := exactSeq(in, 10)
	if err != nil || res.Cost != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	big := gen.Chain(63)
	inBig := pebble.MustInstance(big, pebble.MPP(1, 2, 1))
	if res, err := exactSeq(inBig, budget); err == nil || res != nil {
		t.Fatal("63-node instance accepted")
	}
	// ZeroIO auto-dispatches beyond the word cap instead of refusing.
	if res, err := ZeroIO(context.Background(), big, 2, budget); err != nil || !res.Feasible {
		t.Fatalf("ZeroIO on 63 nodes should dispatch to bitset variant: %v %v", res, err)
	}
}

// TestExactTooManyProcessors: the search sizes its memory by k (a
// budget-1 solve of grid 2×2 allocated 83 MB at k = 10⁴), so ExactWith
// refuses k beyond MaxExact as it refuses n, and the root bound answers
// a huge k from the structural bound, which allocates nothing per
// processor. At k = MaxExact the two bounds agree.
func TestExactTooManyProcessors(t *testing.T) {
	g := gen.Grid2D(2, 2)
	in := pebble.MustInstance(g, pebble.MPP(MaxExact+1, 3, 1))
	if res, err := exactSeq(in, 1); err == nil || res != nil {
		t.Fatalf("k = %d accepted: %+v, %v", MaxExact+1, res, err)
	}
	edge := pebble.MustInstance(g, pebble.MPP(MaxExact, 3, 1))
	if got, want := RootLowerBound(edge, HeuristicMax), bounds.StructuralLower(edge); got != want {
		t.Errorf("k = %d: RootLowerBound = %d, StructuralLower = %d", MaxExact, got, want)
	}
	huge := pebble.MustInstance(g, pebble.MPP(math.MaxInt32, 3, 1))
	if got, want := RootLowerBound(huge, HeuristicMax), bounds.StructuralLower(huge); got != want {
		t.Errorf("k = 2³¹−1: RootLowerBound = %d, StructuralLower = %d", got, want)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		RootLowerBound(huge, HeuristicMax)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("k = 2³¹−1: RootLowerBound allocated %d B per call, want < 1 KB", per)
	}
}

func TestZeroIOChainAndTree(t *testing.T) {
	if res, err := ZeroIO(context.Background(), gen.Chain(10), 2, budget); err != nil || !res.Feasible {
		t.Fatalf("chain r=2: %v %v", res, err)
	}
	if res, err := ZeroIO(context.Background(), gen.Chain(10), 1, budget); err != nil || res.Feasible {
		t.Fatalf("chain r=1 should be infeasible: %v %v", res, err)
	}
	// Complete binary in-tree of depth d needs r = d+2 pebbles for a
	// zero-I/O pebbling in the non-sliding rule set (computing a node
	// keeps both children pebbled during the step).
	tree := gen.BinaryInTree(3)
	if res, err := ZeroIO(context.Background(), tree, 5, budget); err != nil || !res.Feasible {
		t.Fatalf("tree r=5: %v %v", res, err)
	}
	if res, err := ZeroIO(context.Background(), tree, 4, budget); err != nil || res.Feasible {
		t.Fatalf("tree r=4 should be infeasible: %v %v", res, err)
	}
}

func TestZeroIOWitnessReplays(t *testing.T) {
	// Any feasible witness must replay as a valid one-shot SPP strategy
	// with zero I/O cost.
	graphs := []*dag.Graph{
		gen.Chain(8),
		gen.BinaryInTree(3),
		gen.Grid2D(3, 3),
		gen.Pyramid(4),
	}
	rs := []int{2, 5, 4, 6}
	for i, g := range graphs {
		res, err := ZeroIO(context.Background(), g, rs[i], budget)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("%s with r=%d infeasible", g.Name(), rs[i])
		}
		in := pebble.MustInstance(g, pebble.OneShotSPP(rs[i], 7))
		rep, err := pebble.Replay(in, ZeroIOStrategy(g, res.Order))
		if err != nil {
			t.Fatalf("%s: witness does not replay: %v", g.Name(), err)
		}
		if rep.IOActions != 0 || rep.Cost != 0 {
			t.Fatalf("%s: witness has I/O", g.Name())
		}
	}
}

func TestZeroIOMatchesExactOneShot(t *testing.T) {
	// Cross-validation: ZeroIO is feasible iff the exact one-shot SPP
	// solver finds OPT = 0.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := gen.RandomDAG(n, 0.35, 2, seed)
		r := g.MaxInDegree() + 1 + rng.Intn(2)
		zr, err := ZeroIO(context.Background(), g, r, budget)
		if err != nil {
			return false
		}
		in := pebble.MustInstance(g, pebble.OneShotSPP(r, 1))
		res, err := exactSeq(in, budget)
		if err != nil {
			return false
		}
		return zr.Feasible == (res.Cost == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroIOPyramidThreshold(t *testing.T) {
	// The 2-pyramid of height h requires exactly h+2 pebbles for a
	// zero-I/O pebbling in the non-sliding rule set (the classic bound is
	// h+1 with sliding moves; placing a fresh pebble costs one more).
	for h := 2; h <= 4; h++ {
		p := gen.Pyramid(h)
		ok, err := ZeroIO(context.Background(), p, h+2, budget)
		if err != nil || !ok.Feasible {
			t.Errorf("pyramid %d with r=%d: want feasible (%v, %v)", h, h+2, ok, err)
		}
		bad, err := ZeroIO(context.Background(), p, h+1, budget)
		if err != nil || bad.Feasible {
			t.Errorf("pyramid %d with r=%d: want infeasible", h, h+1)
		}
	}
}

func TestExactWithStrategyWitness(t *testing.T) {
	// The reconstructed optimal strategy must replay at exactly the
	// optimal cost, across a mix of tiny instances.
	cases := []struct {
		name string
		g    *dag.Graph
		p    pebble.Params
	}{
		{"chain", gen.Chain(5), pebble.MPP(1, 2, 3)},
		{"2chains-2proc", gen.IndependentChains(2, 3), pebble.MPP(2, 2, 3)},
		{"grid", gen.Grid2D(2, 3), pebble.MPP(2, 3, 2)},
		{"oneshot", gen.Chain(4), pebble.OneShotSPP(2, 2)},
		{"spp-free-compute", gen.Grid2D(2, 2), pebble.SPP(3, 2)},
	}
	for _, c := range cases {
		in := pebble.MustInstance(c.g, c.p)
		res, err := witnessSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Strategy == nil {
			t.Fatalf("%s: no witness", c.name)
		}
		rep, err := pebble.Replay(in, res.Strategy)
		if err != nil {
			t.Fatalf("%s: witness invalid: %v", c.name, err)
		}
		if rep.Cost != res.Cost {
			t.Errorf("%s: witness cost %d ≠ optimal %d", c.name, rep.Cost, res.Cost)
		}
		// Cross-check against the symmetric-collapsed search.
		plain, err := exactSeq(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cost != res.Cost {
			t.Errorf("%s: witness-mode cost %d ≠ plain cost %d", c.name, res.Cost, plain.Cost)
		}
	}
}

func TestQuickWitnessMatchesPlain(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomDAG(3+rng.Intn(5), 0.3, 2, seed)
		k := 1 + rng.Intn(2)
		in := pebble.MustInstance(g, pebble.MPP(k, g.MaxInDegree()+1+rng.Intn(2), 1+rng.Intn(3)))
		w, err := witnessSeq(in, budget)
		if err != nil {
			return false
		}
		p, err := exactSeq(in, budget)
		if err != nil {
			return false
		}
		rep, err := pebble.Replay(in, w.Strategy)
		if err != nil {
			return false
		}
		return w.Cost == p.Cost && rep.Cost == w.Cost
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
