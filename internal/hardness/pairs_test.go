package hardness

import (
	"context"
	"testing"

	"repro/internal/opt"
)

// TestMatchedPairsSeparate is the headline Theorem 2 verification: on
// matched graphs of identical (N, M) — hence byte-identical constructions
// and budgets — zero-I/O feasibility tracks exactly the presence of a
// 3-clique. K3,3 is the adversarial amortized-selection instance the
// in-window cap must block.
func TestMatchedPairsSeparate(t *testing.T) {
	pairs := map[string]*UGraph{
		"tri-pendant": MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}}),
		"c4":          MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		"bull":        MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}}),
		"c5":          MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}),
		"prism":       MustUGraph(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}}),
		"k33":         MustUGraph(6, [][2]int{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}),
	}
	for name, g := range pairs {
		red, err := BuildCliqueReduction(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.ZeroIO(context.Background(), red.Graph, red.R, 30_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: n=%d R=%d feasible=%v clique=%v states=%d",
			name, red.Graph.N(), red.R, res.Feasible, g.HasClique(3), res.States)
		if res.Feasible != g.HasClique(3) {
			t.Errorf("%s: feasibility %v does not match clique %v", name, res.Feasible, g.HasClique(3))
		}
	}
}

// TestQ4Pair generalizes the separation beyond triangles: a matched
// (N=6, M=12) pair where only one side contains a 4-clique.
func TestQ4Pair(t *testing.T) {
	if testing.Short() {
		t.Skip("q=4 searches are slower; run without -short")
	}
	yes := MustUGraph(6, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4
		{4, 0}, {4, 1}, {5, 2}, {5, 3}, {4, 5}, {0, 5},
	})
	no := MustUGraph(6, [][2]int{ // K2,2,2 (octahedron): K3s but no K4
		{0, 2}, {0, 3}, {0, 4}, {0, 5},
		{1, 2}, {1, 3}, {1, 4}, {1, 5},
		{2, 4}, {2, 5}, {3, 4}, {3, 5},
	})
	if !yes.HasClique(4) || no.HasClique(4) {
		t.Fatal("test graphs mis-specified")
	}
	for name, g := range map[string]*UGraph{"yes": yes, "no": no} {
		red, err := BuildCliqueReduction(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.ZeroIO(context.Background(), red.Graph, red.R, 80_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: n=%d R=%d feasible=%v states=%d", name, red.Graph.N(), red.R, res.Feasible, res.States)
		if res.Feasible != g.HasClique(4) {
			t.Errorf("%s: q=4 separation failed (feasible=%v)", name, res.Feasible)
		}
	}
}
