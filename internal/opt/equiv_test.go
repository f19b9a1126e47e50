package opt

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/pebble"
)

// These tests lock the allocation-free search core to the map-backed
// oracle: the same traversal run against hashtab.Ref must return
// byte-identical results. Any divergence means the open-addressing table
// changed state identity (a hash/equality bug), which is exactly the
// class of bug a perf rewrite can introduce silently.

// zooCases is the DAG zoo × parameter grid the equivalence tests sweep.
func zooCases() []struct {
	name string
	g    *dag.Graph
	p    pebble.Params
} {
	return []struct {
		name string
		g    *dag.Graph
		p    pebble.Params
	}{
		{"chain5", gen.Chain(5), pebble.MPP(1, 2, 3)},
		{"2chains-k1", gen.IndependentChains(2, 3), pebble.MPP(1, 2, 3)},
		{"2chains-k2", gen.IndependentChains(2, 3), pebble.MPP(2, 2, 3)},
		{"intree-d2", gen.BinaryInTree(2), pebble.MPP(2, 3, 3)},
		{"grid2x3", gen.Grid2D(2, 3), pebble.MPP(2, 3, 2)},
		{"grid3x3-k1", gen.Grid2D(3, 3), pebble.MPP(1, 4, 2)},
		{"pyramid3", gen.Pyramid(3), pebble.MPP(1, 5, 2)},
		{"oneshot-chain", gen.Chain(4), pebble.OneShotSPP(2, 2)},
		{"spp-free-compute", gen.Grid2D(2, 2), pebble.SPP(3, 2)},
		{"twolayer", gen.TwoLayerRandom(3, 3, 0.5, 6), pebble.MPP(2, 4, 3)},
	}
}

func TestExactTableMatchesOracleZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		got, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := exactOracle(in, seqConfig(budget))
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if got.Cost != want.Cost || got.States != want.States {
			t.Errorf("%s: table (cost %d, states %d) ≠ oracle (cost %d, states %d)",
				c.name, got.Cost, got.States, want.Cost, want.States)
		}
		// A witness solve adds parent refs and the rebuild from them, so
		// it gets its own table-versus-oracle comparison.
		gw, err := witnessSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: witness: %v", c.name, err)
		}
		wcfg := seqConfig(budget)
		wcfg.Witness = true
		ww, err := exactOracle(in, wcfg)
		if err != nil {
			t.Fatalf("%s: witness oracle: %v", c.name, err)
		}
		if gw.Cost != ww.Cost || gw.States != ww.States {
			t.Errorf("%s: witness table (cost %d, states %d) ≠ oracle (cost %d, states %d)",
				c.name, gw.Cost, gw.States, ww.Cost, ww.States)
		}
		if gw.Cost != got.Cost {
			t.Errorf("%s: witness cost %d ≠ plain cost %d", c.name, gw.Cost, got.Cost)
		}
	}
}

// exactConfigs is the heuristic-mode × dominance grid the per-mode
// equivalence and agreement tests sweep.
func exactConfigs(maxStates int) []Config {
	var out []Config
	for _, mode := range []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax} {
		for _, dom := range []bool{false, true} {
			out = append(out, Config{MaxStates: maxStates, Heuristic: mode, Dominance: dom})
		}
	}
	return out
}

// TestExactModesMatchOracleZoo locks every heuristic mode × dominance
// combination to the map-backed oracle: the entire Result — cost, states
// expanded, pruned count, bracket — must be byte-identical, because the
// heuristic and pruning logic live in the shared solver and only the
// state-identity structure differs.
func TestExactModesMatchOracleZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, cfg := range exactConfigs(budget) {
			tag := c.name + "/" + cfg.Heuristic.String()
			if cfg.Dominance {
				tag += "+dom"
			}
			got, err := ExactWith(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, err := exactOracle(in, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tag, err)
			}
			if got.Cost != want.Cost || got.States != want.States || got.Pruned != want.Pruned ||
				got.Incumbent != want.Incumbent || got.LowerBound != want.LowerBound {
				t.Errorf("%s: table (cost %d, states %d, pruned %d) ≠ oracle (cost %d, states %d, pruned %d)",
					tag, got.Cost, got.States, got.Pruned, want.Cost, want.States, want.Pruned)
			}
			if got.HeuristicMode != cfg.Heuristic {
				t.Errorf("%s: result reports mode %v", tag, got.HeuristicMode)
			}
		}
	}
}

// TestExactModesAgreeOnOptimum asserts that every heuristic mode, with
// and without lazy deletion, proves the same optimum on the zoo —
// and that witness runs per mode replay to that same cost. States
// expanded may (and should) differ across modes; the optimum may not.
// Within a mode the witness is output only: the witness Result, its
// Strategy set aside, equals the value Result field for field.
func TestExactModesAgreeOnOptimum(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		ref, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, cfg := range exactConfigs(budget) {
			res, err := ExactWith(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, cfg.Heuristic, err)
			}
			if res.Cost != ref.Cost {
				t.Errorf("%s: mode %v (dom %v) proves cost %d, default proves %d",
					c.name, cfg.Heuristic, cfg.Dominance, res.Cost, ref.Cost)
			}
			wcfg := cfg
			wcfg.Witness = true
			wres, err := ExactWith(context.Background(), in, wcfg)
			if err != nil {
				t.Fatalf("%s/%s witness: %v", c.name, cfg.Heuristic, err)
			}
			if wres.Cost != ref.Cost {
				t.Errorf("%s: witness mode %v cost %d ≠ %d", c.name, cfg.Heuristic, wres.Cost, ref.Cost)
			}
			if wres.Strategy == nil {
				t.Fatalf("%s/%s: witness run returned no strategy", c.name, cfg.Heuristic)
			}
			rep, rerr := pebble.Replay(in, wres.Strategy)
			if rerr != nil {
				t.Fatalf("%s/%s: witness does not replay: %v", c.name, cfg.Heuristic, rerr)
			}
			if rep.Cost != ref.Cost {
				t.Errorf("%s/%s: witness replays to %d, optimum is %d", c.name, cfg.Heuristic, rep.Cost, ref.Cost)
			}
			if !sameButStrategy(wres, res) {
				t.Errorf("%s/%s (dom %v): witness Result %+v ≠ value Result %+v",
					c.name, cfg.Heuristic, cfg.Dominance, *wres, *res)
			}
		}
	}
}

// sameButStrategy reports whether a witness Result equals a value Result
// in every field but Strategy.
func sameButStrategy(witness, value *Result) bool {
	w := *witness
	w.Strategy = value.Strategy
	return reflect.DeepEqual(&w, value)
}

func TestExactTableMatchesOracleQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := gen.RandomDAG(n, 0.3, 2, seed)
		k := 1 + rng.Intn(2)
		r := g.MaxInDegree() + 1 + rng.Intn(2)
		io := 1 + rng.Intn(3)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		got, err := exactSeq(in, budget)
		if err != nil {
			return false
		}
		want, err := exactOracle(in, seqConfig(budget))
		if err != nil {
			return false
		}
		if got.Cost != want.Cost || got.States != want.States {
			t.Logf("seed %d: table (%d, %d) ≠ oracle (%d, %d)",
				seed, got.Cost, got.States, want.Cost, want.States)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sameOrder(a, b []dag.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkZeroIOEquiv(t *testing.T, name string, g *dag.Graph, r int, max int) {
	t.Helper()
	got, err := ZeroIO(context.Background(), g, r, max)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := zeroIOOracle(g, r, max)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if got.Feasible != want.Feasible || got.States != want.States || !sameOrder(got.Order, want.Order) {
		t.Errorf("%s: table (feasible %v, states %d) ≠ oracle (feasible %v, states %d)",
			name, got.Feasible, got.States, want.Feasible, want.States)
	}
}

// TestZeroIOBigMatchesOracleZoo locks ZeroIO's bitset search, its memo
// keyed on the computed-set's words, to the map-backed oracle memo on
// small DAGs.
func TestZeroIOBigMatchesOracleZoo(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
		r    int
	}{
		{"chain10-r2", gen.Chain(10), 2},
		{"chain10-r1", gen.Chain(10), 1},
		{"intree3-r5", gen.BinaryInTree(3), 5},
		{"intree3-r4", gen.BinaryInTree(3), 4},
		{"grid3x3-r4", gen.Grid2D(3, 3), 4},
		{"pyramid4-r6", gen.Pyramid(4), 6},
		{"pyramid4-r5", gen.Pyramid(4), 5},
	}
	for _, c := range cases {
		checkZeroIOEquiv(t, c.name, c.g, c.r, budget)
	}
}

// TestZeroIOBigMatchesOracleCliquePairs runs the equivalence on the E12
// matched clique pairs — the Theorem 2 reduction instances (47 and 56
// nodes), whose exhaustive refutations exercise the memo the hardest.
func TestZeroIOBigMatchesOracleCliquePairs(t *testing.T) {
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
		wantFeasible := pc.graph.HasClique(q)
		got, err := ZeroIO(context.Background(), red.Graph, red.R, 8_000_000)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if got.Feasible != wantFeasible {
			t.Errorf("%s: feasible %v, want %v", pc.name, got.Feasible, wantFeasible)
		}
		checkZeroIOEquiv(t, pc.name, red.Graph, red.R, 8_000_000)
	}
}

// TestExactAllocationBudget pins the search core's point: a full
// single-worker run on the grid benchmark instance, in either engine,
// must stay far below the old per-run allocation count (~13k allocs
// with the map/heap core). The bound is generous — it exists to catch a
// regression back to per-state allocation, not to freeze the exact
// constant. The witness row is the benchmark's k=2 grid solve: a
// witness keeps only a parent ref per state and rebuilds its moves at
// the end, so it must allocate like a value solve.
func TestExactAllocationBudget(t *testing.T) {
	g := gen.Grid2D(3, 3)
	in := pebble.MustInstance(g, pebble.MPP(1, 4, 2))
	witness := DefaultConfig(10_000_000)
	witness.Witness = true
	rows := []struct {
		name string
		in   *pebble.Instance
		cfg  Config
	}{
		{"deterministic", in, seqConfig(10_000_000)},
		{"async", in, seqConfig(10_000_000)},
		{"witness-k2", pebble.MustInstance(g, pebble.MPP(2, 3, 2)), witness},
	}
	rows[1].cfg.Mode = ModeAsync
	for _, row := range rows {
		allocs := testing.AllocsPerRun(5, func() {
			if res, err := ExactWith(context.Background(), row.in, row.cfg); err != nil || res.Status != StatusComplete {
				t.Fatal(err)
			}
		})
		if allocs > 2000 {
			t.Errorf("%s run on grid3x3 allocates %v times per run; the allocation-free core should stay ≤ 2000", row.name, allocs)
		}
	}
}
