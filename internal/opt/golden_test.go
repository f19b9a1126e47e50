package opt

import (
	"context"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/pebble"
)

// goldenBudget caps every golden exact search, so a pruning regression
// that blows the state space up fails fast on ErrBudget instead of
// running for minutes.
const goldenBudget = 1_000_000

// TestGoldenStates is the regression gate for the exponential searches:
// on fixed instances every deterministic search expands an exact number
// of states and prunes an exact number of candidates, so any change to
// the heuristics, dominance pruning, twin canonicalization or expansion
// order shows up here as a moved count. The counts are pinned, not
// bounded: a deliberate improvement updates this table in the same
// change that earns it.
//
// Every exact row runs at Workers=1. Deterministic counts are identical
// at every worker count (parallel_test.go), and ModeAsync at one worker
// has no concurrency, so its count is deterministic too. The grid3x3-k2
// rows are the ones whose dominance chains reach realistic lengths.
func TestGoldenStates(t *testing.T) {
	grid3x3 := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(1, 4, 2))
	grid3x3k2 := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 3, 2))
	grid2x3 := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	zipg, _ := gen.Zipper(2, 3, 0)
	zipper := pebble.MustInstance(zipg, pebble.MPP(1, 4, 5))

	// The configurations: DefaultConfig, each heuristic mode with pruning
	// off (floor reproduces the pre-heuristic-stack search), the async
	// engine, and witness reconstruction.
	def := seqConfig(goldenBudget)
	floorCfg := Config{MaxStates: goldenBudget, Workers: 1, Heuristic: HeuristicFloor}
	ioCfg := Config{MaxStates: goldenBudget, Workers: 1, Heuristic: HeuristicIO}
	maxCfg := Config{MaxStates: goldenBudget, Workers: 1, Heuristic: HeuristicMax}
	async := def
	async.Mode = ModeAsync
	witness := def
	witness.Witness = true
	exactRows := []struct {
		name   string
		in     *pebble.Instance
		cfg    Config
		cost   int64
		states int
		pruned int
	}{
		{"grid3x3-k1/default", grid3x3, def, 9, 36, 3},
		{"grid3x3-k2/default", grid3x3k2, def, 11, 75_981, 129_460},
		{"grid3x3-k2/async", grid3x3k2, async, 11, 54_778, 134_097},
		{"grid2x3-k2/default", grid2x3, def, 6, 272, 491},
		{"grid2x3-k2/floor", grid2x3, floorCfg, 6, 1283, 0},
		{"grid2x3-k2/io", grid2x3, ioCfg, 6, 575, 0},
		{"grid2x3-k2/max", grid2x3, maxCfg, 6, 575, 0},
		{"grid2x3-k2/async", grid2x3, async, 6, 116, 171},
		{"grid2x3-k2/witness", grid2x3, witness, 6, 1099, 0},
		{"zipper2x3-k1-g5/default", zipper, def, 9, 66, 55},
		{"zipper2x3-k1-g5/floor", zipper, floorCfg, 9, 209, 0},
		{"zipper2x3-k1-g5/io", zipper, ioCfg, 9, 142, 0},
		{"zipper2x3-k1-g5/max", zipper, maxCfg, 9, 142, 0},
		{"zipper2x3-k1-g5/async", zipper, async, 9, 45, 22},
		{"zipper2x3-k1-g5/witness", zipper, witness, 9, 142, 0},
	}
	for _, row := range exactRows {
		t.Run(row.name, func(t *testing.T) {
			res, err := ExactWith(context.Background(), row.in, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != row.cost || res.States != row.states || res.Pruned != row.pruned {
				t.Errorf("cost %d in %d states, %d pruned; want cost %d in %d states, %d pruned",
					res.Cost, res.States, res.Pruned, row.cost, row.states, row.pruned)
			}
		})
	}

	// The zero-I/O deciders. The Theorem 2 clique reduction of C4 at q=3
	// (no triangle, so infeasible; 47 nodes, r=21) is the measurement that
	// keeps both deciders: the bitset search's twin canonicalization and
	// dominance rule cut its exhaustive search from 35 693 states to
	// 2 017, while on a small feasible instance both find a witness in
	// the same 28 states.
	c4 := hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	red, err := hardness.BuildCliqueReduction(c4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if red.Graph.N() != 47 || red.R != 21 {
		t.Fatalf("C4 q=3 reduction has n=%d r=%d, want n=47 r=21", red.Graph.N(), red.R)
	}
	pyramid := gen.Pyramid(6)
	zeroRows := []struct {
		name      string
		solve     func(context.Context, *dag.Graph, int, int) (*ZeroIOResult, error)
		g         *dag.Graph
		r         int
		maxStates int
		feasible  bool
		states    int
	}{
		{"ZeroIO/pyramid6-r8", ZeroIO, pyramid, 8, goldenBudget, true, 28},
		{"ZeroIOBig/pyramid6-r8", ZeroIOBig, pyramid, 8, goldenBudget, true, 28},
		{"ZeroIO/clique-C4-q3", ZeroIO, red.Graph, red.R, goldenBudget, false, 35_693},
		{"ZeroIOBig/clique-C4-q3", ZeroIOBig, red.Graph, red.R, goldenBudget, false, 2_017},
		// A budget of 0 means unbounded, as for Config.MaxStates.
		{"ZeroIO/pyramid6-r8-budget0", ZeroIO, pyramid, 8, 0, true, 28},
		{"ZeroIOBig/pyramid6-r8-budget0", ZeroIOBig, pyramid, 8, 0, true, 28},
	}
	for _, row := range zeroRows {
		t.Run(row.name, func(t *testing.T) {
			res, err := row.solve(context.Background(), row.g, row.r, row.maxStates)
			if err != nil {
				t.Fatal(err)
			}
			if res.Feasible != row.feasible || res.States != row.states {
				t.Errorf("feasible=%v in %d states, want feasible=%v in %d states",
					res.Feasible, res.States, row.feasible, row.states)
			}
		})
	}
}
