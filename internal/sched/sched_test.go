package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
)

// zoo returns a mix of small DAG families for exhaustive scheduler
// validation.
func zoo() map[string]*dag.Graph {
	z := map[string]*dag.Graph{
		"chain":    gen.Chain(20),
		"chains4":  gen.IndependentChains(4, 8),
		"intree":   gen.BinaryInTree(4),
		"grid":     gen.Grid2D(5, 5),
		"pyramid":  gen.Pyramid(6),
		"fft":      gen.FFT(3),
		"matmul":   gen.MatMul(2),
		"twolayer": gen.TwoLayerRandom(6, 10, 0.3, 1),
		"random":   gen.RandomDAG(40, 0.15, 4, 2),
	}
	zg, _ := gen.Zipper(3, 12, 0)
	z["zipper"] = zg
	fc, _ := gen.FanChain(3, 10, 0)
	z["fanchain"] = fc
	br, _ := gen.SharedPrefixBroom(3, 2, 5)
	z["broom"] = br
	tg, _ := gen.GreedyTrapG(2, 6)
	z["trapg"] = tg
	return z
}

func allSchedulers() []Scheduler {
	return []Scheduler{
		Baseline{},
		Greedy{Select: SelectCount, Tie: TieLowID, Evict: EvictLRU},
		Greedy{Select: SelectCount, Tie: TieHighID, Evict: EvictFewestUses},
		Greedy{Select: SelectFraction, Tie: TieLowID, Evict: EvictLRU},
		Greedy{Select: SelectFraction, Tie: TieHighID, Evict: EvictFewestUses},
		Partitioned{Assign: AssignAllToOne, AssignName: "one"},
		Partitioned{Assign: AssignComponents, AssignName: "components"},
		Partitioned{Assign: AssignLevelRoundRobin, AssignName: "levels"},
		Partitioned{Assign: AssignTopoBlocks, AssignName: "blocks"},
	}
}

// TestAllSchedulersValidOnZoo cross-products schedulers × DAG zoo ×
// (k, r, g) choices; every strategy must pass Replay and land within the
// Lemma 1 bounds.
func TestAllSchedulersValidOnZoo(t *testing.T) {
	type params struct{ k, rExtra, g int }
	paramSets := []params{{1, 1, 1}, {2, 1, 2}, {3, 4, 3}, {4, 2, 1}}
	for name, g := range zoo() {
		for _, ps := range paramSets {
			r := g.MaxInDegree() + 1 + ps.rExtra
			in := pebble.MustInstance(g, pebble.MPP(ps.k, r, ps.g))
			for _, s := range allSchedulers() {
				rep, err := Run(s, in)
				if err != nil {
					t.Errorf("%s on %s (k=%d r=%d g=%d): %v", s.Name(), name, ps.k, r, ps.g, err)
					continue
				}
				lo, hi := bounds.Lemma1Lower(in), bounds.Lemma1Upper(in)
				if rep.Cost < lo {
					t.Errorf("%s on %s: cost %d below Lemma 1 lower bound %d", s.Name(), name, rep.Cost, lo)
				}
				if rep.Cost > hi {
					t.Errorf("%s on %s: cost %d above Lemma 1 upper bound %d", s.Name(), name, rep.Cost, hi)
				}
			}
		}
	}
}

func TestBaselineCostFormula(t *testing.T) {
	// Baseline on a chain: node 0 costs 1 compute + 1 write; node i > 0
	// adds 1 read. Check exact accounting.
	in := pebble.MustInstance(gen.Chain(10), pebble.MPP(1, 2, 3))
	rep, err := Run(Baseline{}, in)
	if err != nil {
		t.Fatal(err)
	}
	wantIO := int64(3) * int64(10+9) // 10 writes + 9 reads
	if rep.IOCost != wantIO {
		t.Errorf("IOCost = %d, want %d", rep.IOCost, wantIO)
	}
	if rep.ComputeCost != 10 {
		t.Errorf("ComputeCost = %d, want 10", rep.ComputeCost)
	}
}

func TestGreedyChainNoIO(t *testing.T) {
	// A single chain with r ≥ 2 needs no I/O under greedy: the pebble
	// walks down the chain.
	in := pebble.MustInstance(gen.Chain(30), pebble.MPP(1, 2, 5))
	rep, err := Run(Greedy{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions != 0 {
		t.Errorf("greedy chain IOActions = %d, want 0", rep.IOActions)
	}
	if rep.ComputeActions != 30 {
		t.Errorf("ComputeActions = %d", rep.ComputeActions)
	}
}

func TestGreedyNeverRecomputes(t *testing.T) {
	for name, g := range zoo() {
		in := pebble.MustInstance(g, pebble.MPP(2, g.MaxInDegree()+2, 2))
		rep, err := Run(Greedy{}, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Recomputations != 0 {
			t.Errorf("%s: greedy recomputed %d times", name, rep.Recomputations)
		}
		if rep.ComputeActions != g.N() {
			t.Errorf("%s: computed %d of %d nodes", name, rep.ComputeActions, g.N())
		}
	}
}

func TestPartitionedComponentsPerfectSpeedup(t *testing.T) {
	// k independent chains under the components assignment: zero I/O and
	// exactly length compute moves (perfect factor-k speedup; the Lemma 7
	// equality case).
	k, length := 4, 25
	g := gen.IndependentChains(k, length)
	in := pebble.MustInstance(g, pebble.MPP(k, 2, 3))
	rep, err := Run(Partitioned{Assign: AssignComponents, AssignName: "components"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions != 0 {
		t.Errorf("IOActions = %d, want 0", rep.IOActions)
	}
	if rep.ComputeMoves != length {
		t.Errorf("ComputeMoves = %d, want %d", rep.ComputeMoves, length)
	}
	if rep.Cost != int64(length) {
		t.Errorf("Cost = %d, want %d", rep.Cost, length)
	}
}

func TestPartitionedSingleProcBeladyOnZipper(t *testing.T) {
	// Zipper with r = 2d+2: everything fits; Belady keeps both groups
	// resident and the chain costs zero I/O.
	d := 3
	g, _ := gen.Zipper(d, 20, 0)
	in := pebble.MustInstance(g, pebble.MPP(1, 2*d+2, 5))
	rep, err := Run(Partitioned{Assign: AssignAllToOne, AssignName: "one"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions != 0 {
		t.Errorf("zipper with ample memory: IOActions = %d, want 0", rep.IOActions)
	}
	if rep.Cost != int64(g.N()) {
		t.Errorf("Cost = %d, want n = %d", rep.Cost, g.N())
	}
}

func TestPartitionedZipperTightMemoryPaysIO(t *testing.T) {
	// Zipper with r = d+2: the groups no longer fit together; every
	// second chain node forces group swaps, so I/O must appear.
	d := 3
	g, _ := gen.Zipper(d, 20, 0)
	in := pebble.MustInstance(g, pebble.MPP(1, d+2, 5))
	rep, err := Run(Partitioned{Assign: AssignAllToOne, AssignName: "one"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions == 0 {
		t.Error("tight zipper came out I/O-free; memory accounting broken")
	}
}

func TestGreedyLemma3Bound(t *testing.T) {
	// Greedy must stay within 2·(g(Δin+1)+1) of the trivial lower bound
	// n/k — a weaker but checkable form of Lemma 3 (OPT ≥ n/k).
	for name, g := range zoo() {
		for _, k := range []int{1, 2, 4} {
			in := pebble.MustInstance(g, pebble.MPP(k, g.MaxInDegree()+2, 3))
			rep, err := Run(Greedy{}, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			factor := 2 * (int64(in.G)*int64(g.MaxInDegree()+1) + 1)
			bound := factor * bounds.Lemma1Lower(in)
			if bound == 0 {
				bound = factor
			}
			if rep.Cost > bound {
				t.Errorf("%s k=%d: greedy cost %d exceeds 2(g(Δ+1)+1)·⌈n/k⌉ = %d",
					name, k, rep.Cost, bound)
			}
		}
	}
}

func TestAssignFunctions(t *testing.T) {
	g := gen.IndependentChains(3, 5)
	for _, tc := range []struct {
		name string
		fn   AssignFunc
	}{
		{"one", AssignAllToOne},
		{"components", AssignComponents},
		{"levels", AssignLevelRoundRobin},
		{"blocks", AssignTopoBlocks},
	} {
		a := tc.fn(g, 3)
		if len(a) != g.N() {
			t.Errorf("%s: wrong length", tc.name)
		}
		for v, p := range a {
			if p < 0 || p >= 3 {
				t.Errorf("%s: node %d → processor %d out of range", tc.name, v, p)
			}
		}
	}
	// components keeps each chain whole
	a := AssignComponents(g, 3)
	for c := 0; c < 3; c++ {
		base := a[c*5]
		for i := 1; i < 5; i++ {
			if a[c*5+i] != base {
				t.Error("components split a chain")
			}
		}
	}
	// all-to-one really is all-to-one
	for _, p := range AssignAllToOne(g, 3) {
		if p != 0 {
			t.Error("AssignAllToOne strayed")
		}
	}
}

func TestPartitionedRejectsBadAssignment(t *testing.T) {
	g := gen.Chain(4)
	in := pebble.MustInstance(g, pebble.MPP(2, 2, 1))
	bad := Partitioned{Assign: func(*dag.Graph, int) []int { return []int{0, 1} }, AssignName: "short"}
	if _, err := bad.Schedule(in); err == nil {
		t.Error("short assignment accepted")
	}
	oob := Partitioned{Assign: func(g *dag.Graph, k int) []int { return []int{0, 5, 0, 0} }, AssignName: "oob"}
	if _, err := oob.Schedule(in); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func TestSchedulerNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range allSchedulers() {
		n := s.Name()
		if n == "" {
			t.Error("empty scheduler name")
		}
		if seen[n] {
			t.Errorf("duplicate scheduler name %q", n)
		}
		seen[n] = true
	}
}

// TestQuickRandomDAGsAllSchedulers is the main property test: on random
// DAGs with random parameters, every scheduler yields a Replay-valid
// strategy whose cost respects the Lemma 1 sandwich.
func TestQuickRandomDAGsAllSchedulers(t *testing.T) {
	schedulers := allSchedulers()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		maxIn := 1 + rng.Intn(4)
		g := gen.RandomDAG(n, 0.1+rng.Float64()*0.3, maxIn, seed)
		k := 1 + rng.Intn(4)
		r := g.MaxInDegree() + 1 + rng.Intn(4)
		io := 1 + rng.Intn(5)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		for _, s := range schedulers {
			rep, err := Run(s, in)
			if err != nil {
				t.Logf("seed %d: %s failed: %v", seed, s.Name(), err)
				return false
			}
			if rep.Cost < bounds.Lemma1Lower(in) || rep.Cost > bounds.Lemma1Upper(in) {
				t.Logf("seed %d: %s cost %d outside bounds", seed, s.Name(), rep.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
