package hardness

import (
	"context"
	"testing"

	"repro/internal/opt"
	"repro/internal/pebble"
)

func TestUGraphBasics(t *testing.T) {
	g := MustUGraph(4, [][2]int{{0, 1}, {1, 0}, {2, 3}})
	if g.M() != 2 {
		t.Fatalf("M = %d (dedup failed)", g.M())
	}
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 0) || g.Adjacent(0, 2) {
		t.Fatal("Adjacent wrong")
	}
	if _, err := NewUGraph(3, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := NewUGraph(3, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	comp := g.Complement()
	if comp.M() != 4*3/2-2 {
		t.Fatalf("complement M = %d", comp.M())
	}
}

func TestBruteForceOracles(t *testing.T) {
	c := Corpus()
	cases := []struct {
		name   string
		maxClq int
		minVC  int
	}{
		{"triangle", 3, 2},
		{"path4", 2, 2},
		{"c4", 2, 2},
		{"k4", 4, 3},
		{"k4-minus-edge", 3, 2},
		{"c5", 2, 3},
		{"k33", 2, 3},
		{"prism", 3, 4},
	}
	for _, tc := range cases {
		g := c[tc.name]
		if g == nil {
			t.Fatalf("%s missing from corpus", tc.name)
		}
		if got := g.MaxClique(); got != tc.maxClq {
			t.Errorf("%s: MaxClique = %d, want %d", tc.name, got, tc.maxClq)
		}
		if got := g.MinVertexCover(); got != tc.minVC {
			t.Errorf("%s: MinVertexCover = %d, want %d", tc.name, got, tc.minVC)
		}
	}
}

func TestCubicCorpusIsCubic(t *testing.T) {
	for name, g := range CubicCorpus() {
		deg := make([]int, g.N)
		for _, e := range g.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		for v, d := range deg {
			if d != 3 {
				t.Errorf("%s: vertex %d has degree %d", name, v, d)
			}
		}
	}
}

// TestIntendedOrderIsZeroIOWitness: for every YES instance in the corpus,
// the certificate-induced order must be a valid zero-I/O one-shot
// pebbling within budget R.
func TestIntendedOrderIsZeroIOWitness(t *testing.T) {
	for name, g := range Corpus() {
		q := 3
		if !g.HasClique(q) {
			continue
		}
		red, err := BuildCliqueReduction(g, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clique := findClique(g, q)
		order, err := red.IntendedOrder(g, clique)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := pebble.NewInstance(red.Graph, pebble.OneShotSPP(red.R, 1))
		if err != nil {
			t.Fatalf("%s: instance: %v", name, err)
		}
		rep, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, order))
		if err != nil {
			t.Errorf("%s: intended order invalid: %v", name, err)
			continue
		}
		if rep.IOActions != 0 || rep.Cost != 0 {
			t.Errorf("%s: intended order not zero-I/O", name)
		}
		if rep.MaxRedInUse[0] > red.R {
			t.Errorf("%s: peak %d exceeds R=%d", name, rep.MaxRedInUse[0], red.R)
		}
	}
}

func findClique(g *UGraph, q int) []int {
	var out []int
	var rec func(start int, chosen []int) bool
	rec = func(start int, chosen []int) bool {
		if len(chosen) == q {
			out = append([]int{}, chosen...)
			return true
		}
		for v := start; v < g.N; v++ {
			ok := true
			for _, u := range chosen {
				if !g.Adjacent(u, v) {
					ok = false
					break
				}
			}
			if ok && rec(v+1, append(chosen, v)) {
				return true
			}
		}
		return false
	}
	rec(0, nil)
	return out
}

// TestCliqueEquivalence is the headline Theorem 2 check: zero-I/O
// feasibility of the reduction ⟺ the source graph has a q-clique, across
// the whole corpus.
func TestCliqueEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reduction search is slow; run without -short")
	}
	for name, g := range Corpus() {
		q := 3
		if g.M() <= q*(q-1)/2 {
			// Out of the construction's scope: with no spare edges the
			// endgame wall cannot bind (documented limitation).
			continue
		}
		red, err := BuildCliqueReduction(g, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := opt.ZeroIOBig(context.Background(), red.Graph, red.R, 40_000_000)
		if err != nil {
			t.Fatalf("%s: search: %v", name, err)
		}
		want := g.HasClique(q)
		if res.Feasible != want {
			t.Errorf("%s (n=%d nodes, R=%d): feasible=%v but clique=%v",
				name, red.Graph.N(), red.R, res.Feasible, want)
		}
		if res.Feasible {
			// Replay the found witness.
			in := pebble.MustInstance(red.Graph, pebble.OneShotSPP(red.R, 1))
			if _, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, res.Order)); err != nil {
				t.Errorf("%s: witness replay failed: %v", name, err)
			}
		}
	}
}

func TestBuildCliqueReductionValidation(t *testing.T) {
	g := Corpus()["triangle"]
	if _, err := BuildCliqueReduction(g, 1); err == nil {
		t.Error("q=1 accepted")
	}
	if _, err := BuildCliqueReduction(g, 5); err == nil {
		t.Error("q>N accepted")
	}
	red, err := BuildCliqueReduction(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Structure sanity: node count 8 + 5M + (2q-3+1)N + walls.
	cs, W := 2*3-3, 2*3-3
	wantN := 8 + 5*g.M() + (cs+1)*g.N + W + len(red.Wall2)
	if red.Graph.N() != wantN {
		t.Errorf("reduction n = %d, want %d", red.Graph.N(), wantN)
	}
	if len(red.Graph.Sinks()) != 1 || red.Graph.Sinks()[0] != red.Sink {
		t.Error("reduction must have the single sink Z")
	}
	// Bad certificate rejected.
	if _, err := red.IntendedOrder(g, []int{0, 1}); err == nil {
		t.Error("short certificate accepted")
	}
}
