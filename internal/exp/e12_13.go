package exp

import (
	"context"
	"fmt"

	"repro/internal/hardness"
	"repro/internal/opt"
	"repro/internal/pebble"
)

// e12Pairs returns the matched instance pairs used by E12: same vertex
// and edge counts (hence byte-identical gadget sizes and budget R), but
// one contains a q-clique and the other does not — so any feasibility
// difference is attributable purely to the clique structure.
func e12Pairs() []struct {
	name    string
	yes, no *hardness.UGraph
} {
	return []struct {
		name    string
		yes, no *hardness.UGraph
	}{
		{
			"N4-M4",
			hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}}), // triangle + pendant
			hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), // C4
		},
		{
			"N5-M5",
			hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}}), // bull
			hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}), // C5
		},
		{
			"N5-M6",
			hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}), // two triangles
			hardness.MustUGraph(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}}), // K2,3
		},
	}
}

// E12CliqueReduction reproduces the computational core of Theorem 2 /
// Figures 3-4: the tower-and-squeeze construction turns "does G′ contain
// a q-clique?" into "does a zero-I/O one-shot pebbling within budget R
// exist?". We verify both directions on matched instance pairs and
// validate every YES witness by replaying it under the one-shot rules.
func E12CliqueReduction(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Theorem 2 / Figures 3-4: clique reduction",
		Claim:   "Deciding whether one-shot SPP admits a pebbling of I/O cost 0 is NP-hard (reduction from q-clique via tower/level gadgets); hence the optimal I/O cannot be approximated to any finite factor.",
		Columns: []string{"pair", "graph", "clique?", "dag n", "budget R", "zero-I/O feasible", "states"},
	}
	const q = 3
	budget := 30_000_000
	pairs := e12Pairs()
	if cfg.Quick {
		pairs = pairs[:2]
		budget = 8_000_000
	}
	allMatch := true
	for _, pair := range pairs {
		for _, side := range []struct {
			g   *hardness.UGraph
			tag string
		}{{pair.yes, "with-clique"}, {pair.no, "no-clique"}} {
			red, err := hardness.BuildCliqueReduction(side.g, q)
			if err != nil {
				return nil, err
			}
			stage := fmt.Sprintf("E12 %s/%s", pair.name, side.tag)
			zres, zerr := opt.ZeroIO(ctx, red.Graph, red.R, cfg.states(budget))
			res, ok, err := zeroIOIn(t, stage, zres, zerr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", stage, err)
			}
			want := side.g.HasClique(q)
			if !ok {
				// Indeterminate verdict: the pair can't confirm or refute
				// the claim; record what was explored and move on.
				t.AddRow(pair.name, side.tag, boolMark(want), di(red.Graph.N()), di(red.R),
					res.Verdict.String(), di(res.States))
				continue
			}
			if res.Feasible != want {
				allMatch = false
			}
			if res.Feasible {
				in := pebble.MustInstance(red.Graph, pebble.OneShotSPP(red.R, 1))
				rep, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, res.Order))
				if err != nil || rep.IOActions != 0 {
					return nil, fmt.Errorf("E12 %s/%s: witness replay failed: %v", pair.name, side.tag, err)
				}
			}
			t.AddRow(pair.name, side.tag, boolMark(want), di(red.Graph.N()), di(red.R),
				boolMark(res.Feasible), di(res.States))
		}
	}
	t.AddCheck("feasibility ⟺ q-clique", allMatch,
		"on every matched pair (identical N, M, hence identical construction and budget), zero-I/O feasibility tracks exactly the presence of a 3-clique")
	t.AddNote("gadget sizes are this reproduction's re-derivation of the paper's towers; instances with M = C(q,2) exactly (too few edges for the endgame wall to bind) are out of scope and excluded")
	return t, nil
}

// E13VertexCover reproduces the Lemma 11 / Theorem 1 coupling between
// pebbling and vertex cover on 3-regular graphs (the APX-hard class): we
// solve minimum vertex cover through pebbling-feasibility queries alone
// (vc(G) = N − max-clique(Ḡ), each clique query answered by the Theorem 2
// construction) and match brute force exactly — the L-reduction direction
// that makes approximating pebbling cost NP-hard.
func E13VertexCover(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Theorem 1 / Lemma 11: vertex-cover coupling",
		Claim:   "SPP with computation costs is APX-hard via an L-reduction to vertex cover on 3-regular graphs; pebbling optimization therefore decides vertex cover.",
		Columns: []string{"graph", "N", "M", "vc (brute force)", "vc (via pebbling queries)", "queries", "match"},
	}
	corpus := []struct {
		name string
		g    *hardness.UGraph
	}{
		{"k4", hardness.CubicCorpus()["k4"]},
		{"prism", hardness.CubicCorpus()["prism"]},
	}
	if !cfg.Quick {
		corpus = append(corpus, struct {
			name string
			g    *hardness.UGraph
		}{"k33", hardness.CubicCorpus()["k33"]})
	}
	allMatch := true
	for _, tc := range corpus {
		comp := tc.g.Complement()
		want := tc.g.MinVertexCover()
		// vc(G) = N − α(G) = N − ω(Ḡ): find ω(Ḡ) by pebbling queries for
		// q = 2, 3, … (a query is feasible iff Ḡ has a q-clique).
		queries := 0
		omega := 1 // every non-empty graph has a 1-clique
		partial := false
		for qq := 2; qq <= comp.N; qq++ {
			feasible, usedQuery, err := cliqueQuery(ctx, cfg, comp, qq)
			if err != nil {
				if opt.IsPartial(err) {
					// An undecided query breaks the ω(Ḡ) ascent; report
					// the graph as unresolved instead of guessing.
					t.MarkPartial(fmt.Sprintf("E13 %s q=%d", tc.name, qq), err)
					partial = true
					break
				}
				return nil, fmt.Errorf("E13 %s q=%d: %w", tc.name, qq, err)
			}
			if usedQuery {
				queries++
			}
			if !feasible {
				break
			}
			omega = qq
		}
		if partial {
			t.AddRow(tc.name, di(tc.g.N), di(tc.g.M()), di(want), "undecided", di(queries), "—")
			continue
		}
		got := tc.g.N - omega
		match := got == want
		allMatch = allMatch && match
		t.AddRow(tc.name, di(tc.g.N), di(tc.g.M()), di(want), di(got), di(queries), boolMark(match))
	}
	t.AddCheck("pebbling queries solve vertex cover", allMatch,
		"minimum vertex cover on every 3-regular test graph is recovered exactly from zero-I/O pebbling feasibility queries")
	t.AddNote("degenerate query sizes (q = 2, or M ≤ C(q,2), where a q-clique would need every edge) are answered by O(M) structural checks; all others run the Theorem 2 construction")
	return t, nil
}

// cliqueQuery answers "does g contain a q-clique?" through the pebbling
// reduction where the construction's scope applies, and through O(M)
// structural shortcuts in the degenerate regimes (q = 2 ⟺ any edge;
// M < C(q,2) ⟺ no; M = C(q,2) ⟺ the edges form exactly a K_q). The
// second result reports whether a pebbling search was actually used.
// Partial-stop errors (budget/deadline) propagate for the caller to
// classify via opt.IsPartial.
func cliqueQuery(ctx context.Context, cfg Config, g *hardness.UGraph, q int) (feasible, usedQuery bool, err error) {
	need := q * (q - 1) / 2
	switch {
	case q == 2:
		return g.M() >= 1, false, nil
	case g.M() < need:
		return false, false, nil
	case g.M() == need:
		// All edges must form a K_q: q vertices of degree q−1 each.
		deg := map[int]int{}
		for _, e := range g.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		if len(deg) != q {
			return false, false, nil
		}
		for _, d := range deg {
			if d != q-1 {
				return false, false, nil
			}
		}
		return true, false, nil
	}
	red, err := hardness.BuildCliqueReduction(g, q)
	if err != nil {
		return false, false, err
	}
	res, err := opt.ZeroIO(ctx, red.Graph, red.R, cfg.states(30_000_000))
	if err != nil {
		return false, false, err
	}
	if res.Feasible {
		// Sanity: replay the witness under the one-shot rules.
		in := pebble.MustInstance(red.Graph, pebble.OneShotSPP(red.R, 1))
		if _, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, res.Order)); err != nil {
			return false, false, fmt.Errorf("witness replay: %w", err)
		}
	}
	return res.Feasible, true, nil
}
