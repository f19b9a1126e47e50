// Hardness demo (Theorem 2, Figures 3–4): build the tower/squeeze
// reduction from q-clique to zero-I/O one-shot pebbling feasibility and
// watch the budget game distinguish structurally identical graphs that
// differ only in whether they contain a triangle.
//
//	go run ./examples/hardness
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/hardness"
	"repro/internal/opt"
	"repro/internal/pebble"
)

func main() {
	const q = 3
	pairs := []struct {
		name string
		g    *hardness.UGraph
	}{
		{"triangle+pendant (K3 present)", hardness.MustUGraph(4,
			[][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})},
		{"C4 (same N and M, no K3)", hardness.MustUGraph(4,
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})},
		{"prism (K3 present)", hardness.CubicCorpus()["prism"]},
		{"K3,3 (same N and M, no K3)", hardness.CubicCorpus()["k33"]},
	}

	for _, p := range pairs {
		red, err := hardness.BuildCliqueReduction(p.g, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  source graph: N=%d M=%d; reduction DAG: n=%d nodes, pebble budget R=%d\n",
			p.name, p.g.N, p.g.M(), red.Graph.N(), red.R)

		res, err := opt.ZeroIOBig(context.Background(), red.Graph, red.R, 50_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  zero-I/O pebbling exists: %v (brute-force clique: %v; %d search states)\n",
			res.Feasible, p.g.HasClique(q), res.States)

		if res.Feasible {
			// Validate the search's witness under the one-shot rules.
			in := pebble.MustInstance(red.Graph, pebble.OneShotSPP(red.R, 1))
			rep, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, res.Order))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  witness replayed: %d computes, %d I/O, peak %d/%d pebbles\n",
				rep.ComputeActions, rep.IOActions, rep.MaxRedInUse[0], red.R)
		}
		fmt.Println()
	}
	fmt.Println("Feasibility tracks the clique exactly — deciding (and hence")
	fmt.Println("approximating) the optimal I/O of one-shot pebbling is NP-hard.")
}
