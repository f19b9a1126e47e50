package opt

import (
	"context"
	"errors"
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
// the heuristics, the move normal forms, twin canonicalization or
// expansion order shows up here as a moved count. The counts are
// pinned, not bounded: a deliberate improvement updates this table in
// the same change that earns it. Pruned counts the dead states of
// one-shot searches only, so it is 0 on every row here.
//
// Every exact row but the /async ones runs in ModeDeterministic, on one
// shard; its counts are the same at every Workers setting. The /async
// rows pin ModeAsync at one worker, which has no concurrency, so their
// counts are deterministic too and equal their /default rows
// (TestExactWorkersMatchSequentialZoo asserts that equality zoo-wide).
// So do the /witness rows: a witness solve is the value solve plus
// parent edges (TestExactModesAgreeOnOptimum asserts it zoo-wide).
// The grid3x3-k2 rows are the benchmark's k=2 grid solve. The pyramid4
// and fft2 rows are its two larger solves, so a change of expansion
// order on the f = OPT plateau fails a plain test run, not only a
// traced benchmark run.
func TestGoldenStates(t *testing.T) {
	grid3x3 := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(1, 4, 2))
	grid3x3k2 := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 3, 2))
	grid2x3 := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	zipg, _ := gen.Zipper(2, 3, 0)
	zipper := pebble.MustInstance(zipg, pebble.MPP(1, 4, 5))
	pyramid4 := pebble.MustInstance(gen.Pyramid(4), pebble.MPP(1, 4, 2))
	fft2 := pebble.MustInstance(gen.FFT(2), pebble.MPP(2, 3, 2))

	// The configurations: DefaultConfig, each heuristic mode with pruning
	// off (floor reproduces the pre-heuristic-stack search), ModeAsync at
	// one worker, and witness reconstruction — an output switch only, so
	// its rows equal their /default rows.
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
		{"grid3x3-k1/default", grid3x3, def, 9, 14, 0},
		{"grid3x3-k2/default", grid3x3k2, def, 11, 39_314, 0},
		{"grid3x3-k2/async", grid3x3k2, async, 11, 39_314, 0},
		{"grid2x3-k2/default", grid2x3, def, 6, 92, 0},
		{"grid2x3-k2/floor", grid2x3, floorCfg, 6, 412, 0},
		{"grid2x3-k2/io", grid2x3, ioCfg, 6, 240, 0},
		{"grid2x3-k2/max", grid2x3, maxCfg, 6, 240, 0},
		{"grid2x3-k2/async", grid2x3, async, 6, 92, 0},
		{"grid2x3-k2/witness", grid2x3, witness, 6, 92, 0},
		{"zipper2x3-k1-g5/default", zipper, def, 9, 45, 0},
		{"zipper2x3-k1-g5/floor", zipper, floorCfg, 9, 207, 0},
		{"zipper2x3-k1-g5/io", zipper, ioCfg, 9, 76, 0},
		{"zipper2x3-k1-g5/max", zipper, maxCfg, 9, 76, 0},
		{"zipper2x3-k1-g5/async", zipper, async, 9, 45, 0},
		{"zipper2x3-k1-g5/witness", zipper, witness, 9, 45, 0},
		{"pyramid4-k1/default", pyramid4, def, 23, 178_259, 0},
		{"fft2-k2/default", fft2, def, 12, 154_683, 0},
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

	// The zero-I/O decider. The Theorem 2 clique reduction of C4 at q=3
	// (no triangle, so infeasible; 47 nodes, r=21) is an exhaustive
	// search, the row where twin canonicalization and the free-first
	// rule cut the most. The pyramid rows find a witness. The ZeroIOBig
	// rows keep the names they had when the bitset search was a separate
	// export; they run that search against the map-backed reference memo
	// (zeroIOOracle), so each count is pinned on both memos.
	c4 := hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	red, err := hardness.BuildCliqueReduction(c4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if red.Graph.N() != 47 || red.R != 21 {
		t.Fatalf("C4 q=3 reduction has n=%d r=%d, want n=47 r=21", red.Graph.N(), red.R)
	}
	pyramid := gen.Pyramid(6)
	table := func(g *dag.Graph, r, maxStates int) (*ZeroIOResult, error) {
		return ZeroIO(context.Background(), g, r, maxStates)
	}
	zeroRows := []struct {
		name      string
		solve     func(*dag.Graph, int, int) (*ZeroIOResult, error)
		g         *dag.Graph
		r         int
		maxStates int
		feasible  bool
		states    int
	}{
		{"ZeroIO/pyramid6-r8", table, pyramid, 8, goldenBudget, true, 28},
		{"ZeroIOBig/pyramid6-r8", zeroIOOracle, pyramid, 8, goldenBudget, true, 28},
		{"ZeroIO/clique-C4-q3", table, red.Graph, red.R, goldenBudget, false, 2_017},
		{"ZeroIOBig/clique-C4-q3", zeroIOOracle, red.Graph, red.R, goldenBudget, false, 2_017},
		// A budget of 0 means unbounded, as for Config.MaxStates.
		{"ZeroIO/pyramid6-r8-budget0", table, pyramid, 8, 0, true, 28},
		{"ZeroIOBig/pyramid6-r8-budget0", zeroIOOracle, pyramid, 8, 0, true, 28},
	}
	for _, row := range zeroRows {
		t.Run(row.name, func(t *testing.T) {
			res, err := row.solve(row.g, row.r, row.maxStates)
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

// TestProbeGate pins the state-table work of the exact search: every
// candidate costs exactly one probe, an Insert, and nothing calls Find
// (solver.relax). On one shard the counts are deterministic, so the
// Insert count is the number of candidates, plus one for the start
// state. A change that probes a candidate twice, or that generates more
// or fewer candidates, moves a count here even when States does not.
// The rows: grid 3×3 at MPP(2,3,2) (golden row grid3x3-k2/default);
// pyramid(3) at MPP(2,4,4) stopped by a 10⁴-state budget; one-shot
// pyramid(3) at k=4, r=4, g=3, whose computes keep the idle choice, so
// tied empty shades can go idle there; and two chains of two nodes on
// 24 processors, run with no deadline, whose tied empty shades offer
// the 25 multisets of the two sources where the full product offered
// 2^24 arrangements of them.
func TestProbeGate(t *testing.T) {
	oneShot := pebble.MPP(4, 4, 3)
	oneShot.OneShot = true
	cases := []struct {
		name        string
		in          *pebble.Instance
		maxStates   int
		states      int
		wantInserts int
	}{
		{"grid3x3-k2", pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 3, 2)), goldenBudget, 39_314, 357_763},
		{"pyramid3-k2-budget", pebble.MustInstance(gen.Pyramid(3), pebble.MPP(2, 4, 4)), 10_000, 10_000, 189_615},
		{"pyramid3-k4-oneshot", pebble.MustInstance(gen.Pyramid(3), oneShot), goldenBudget, 50_437, 864_127},
		{"chains2x2-k24", pebble.MustInstance(gen.IndependentChains(2, 2), pebble.MPP(24, 3, 1)), goldenBudget, 2, 75},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, finds, inserts, err := exactProbes(c.in, seqConfig(c.maxStates))
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if res.States != c.states {
				t.Errorf("%d states, want %d", res.States, c.states)
			}
			if finds != 0 || inserts != c.wantInserts {
				t.Errorf("%d Find and %d Insert calls, want 0 and %d", finds, inserts, c.wantInserts)
			}
		})
	}
}
