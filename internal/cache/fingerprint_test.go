package cache

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
	"repro/internal/spec"
)

// fpZoo is the fingerprint tests' instance zoo: one representative per
// DAG family the solver zoo covers, each paired with the parameters the
// equivalence tests use. Sensitivity properties run over every entry.
func fpZoo(t *testing.T) []struct {
	name string
	in   *pebble.Instance
} {
	t.Helper()
	two := func() *dag.Graph {
		b := dag.NewBuilder("2chains")
		b.AddNewChain(3)
		b.AddNewChain(3)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("2chains: %v", err)
		}
		return g
	}()
	zip, _ := gen.Zipper(2, 3, 0)
	return []struct {
		name string
		in   *pebble.Instance
	}{
		{"chain5", pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))},
		{"2chains-k2", pebble.MustInstance(two, pebble.MPP(2, 2, 3))},
		{"grid2x3-k2", pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))},
		{"pyramid3", pebble.MustInstance(gen.Pyramid(3), pebble.MPP(1, 3, 2))},
		{"zipper2x3", pebble.MustInstance(zip, pebble.MPP(1, 4, 5))},
		{"oneshot-chain", pebble.MustInstance(gen.Chain(4), pebble.OneShotSPP(2, 3))},
		{"spp-free", pebble.MustInstance(gen.Chain(4), pebble.SPP(2, 3))},
	}
}

func mustParse(t *testing.T, s string) *dag.Graph {
	t.Helper()
	g, err := spec.ParseDAG(s)
	if err != nil {
		t.Fatalf("ParseDAG(%q): %v", s, err)
	}
	return g
}

// TestKeyBuildPathInvariance: the fingerprint is a function of the
// graph's structure, not of how the graph object was produced. The same
// DAG built by a generator, parsed from a spec string, or assembled by
// hand (different name, labels, and edge insertion order) must key
// identically.
func TestKeyBuildPathInvariance(t *testing.T) {
	sc := SolverConfig{MaxStates: 1000}
	p := pebble.MPP(1, 2, 3)

	genKey := KeyOf(pebble.MustInstance(gen.Chain(5), p), sc)
	specKey := KeyOf(pebble.MustInstance(mustParse(t, "chain:5"), p), sc)
	if genKey != specKey {
		t.Errorf("gen.Chain(5) and spec chain:5 key differently: %v vs %v", genKey, specKey)
	}

	// Hand-built, edges inserted back to front, cosmetic fields set.
	b := dag.NewBuilder("a completely different name")
	ids := b.AddNodes(5)
	for i := 3; i >= 0; i-- {
		b.AddEdge(ids[i], ids[i+1])
	}
	b.SetLabel(ids[0], "source")
	b.SetLabel(ids[4], "sink")
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if handKey := KeyOf(pebble.MustInstance(g, p), sc); handKey != genKey {
		t.Errorf("hand-built chain keys differently from gen.Chain: %v vs %v", handKey, genKey)
	}

	gridGen := KeyOf(pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2)), sc)
	gridSpec := KeyOf(pebble.MustInstance(mustParse(t, "grid:2,3"), pebble.MPP(2, 3, 2)), sc)
	if gridGen != gridSpec {
		t.Errorf("gen.Grid2D(2,3) and spec grid:2,3 key differently: %v vs %v", gridGen, gridSpec)
	}
}

// reversedEdges rebuilds g with the same node set but the edge list
// inserted in reverse order.
func reversedEdges(t *testing.T, g *dag.Graph) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("reversed-insertion")
	b.AddNodes(g.N())
	es := g.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		b.AddEdge(es[i][0], es[i][1])
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return out
}

// dropEdge rebuilds g without its i-th edge.
func dropEdge(t *testing.T, g *dag.Graph, i int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("edge-dropped")
	b.AddNodes(g.N())
	for j, e := range g.Edges() {
		if j == i {
			continue
		}
		b.AddEdge(e[0], e[1])
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return out
}

// TestKeySensitivityZoo runs the flip properties over the whole zoo:
// reinserting edges in a different order keeps the key; changing any
// single Params field, dropping any single edge, or flipping any
// result-affecting config field changes it.
func TestKeySensitivityZoo(t *testing.T) {
	for _, tc := range fpZoo(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Dominance and Witness start false so each flip below is a
			// real semantic change.
			sc := SolverConfig{Heuristic: 2, MaxStates: 1000}
			base := KeyOf(tc.in, sc)

			if k := KeyOf(pebble.MustInstance(reversedEdges(t, tc.in.Graph), tc.in.Params), sc); k != base {
				t.Errorf("edge insertion order changed the key: %v vs %v", k, base)
			}

			flips := []struct {
				field string
				mut   func(p pebble.Params) pebble.Params
			}{
				{"K", func(p pebble.Params) pebble.Params { p.K++; return p }},
				{"R", func(p pebble.Params) pebble.Params { p.R++; return p }},
				{"G", func(p pebble.Params) pebble.Params { p.G++; return p }},
				{"ComputeCost", func(p pebble.Params) pebble.Params { p.ComputeCost++; return p }},
				{"OneShot", func(p pebble.Params) pebble.Params { p.OneShot = !p.OneShot; return p }},
			}
			for _, f := range flips {
				// Bypass NewInstance validation: a flipped Params value
				// need not be playable to have a distinct fingerprint.
				in := &pebble.Instance{Graph: tc.in.Graph, Params: f.mut(tc.in.Params)}
				if KeyOf(in, sc) == base {
					t.Errorf("flipping Params.%s did not change the key", f.field)
				}
			}

			for i := 0; i < tc.in.Graph.M(); i++ {
				in := &pebble.Instance{Graph: dropEdge(t, tc.in.Graph, i), Params: tc.in.Params}
				if KeyOf(in, sc) == base {
					t.Errorf("dropping edge %d did not change the key", i)
				}
			}

			cfgFlips := []struct {
				field string
				sc    SolverConfig
			}{
				{"Heuristic", SolverConfig{Heuristic: 0, MaxStates: 1000}},
				{"Dominance", SolverConfig{Heuristic: 2, Dominance: true, MaxStates: 1000}},
				{"Witness", SolverConfig{Heuristic: 2, Witness: true, MaxStates: 1000}},
				{"MaxStates", SolverConfig{Heuristic: 2, MaxStates: 2000}},
			}
			for _, f := range cfgFlips {
				if KeyOf(tc.in, f.sc) == base {
					t.Errorf("flipping SolverConfig.%s did not change the key", f.field)
				}
			}
			// Dominance changes a witness solve's Result too, so it keys
			// witness entries apart.
			wit := SolverConfig{Heuristic: 2, Witness: true, MaxStates: 1000}
			witDom := wit
			witDom.Dominance = true
			if KeyOf(tc.in, wit) == KeyOf(tc.in, witDom) {
				t.Errorf("flipping SolverConfig.Dominance under Witness did not change the key")
			}
		})
	}
}

// TestNormalizeCollapses: configurations the solver treats identically
// must share a key, so equivalent requests hit each other's entries.
func TestNormalizeCollapses(t *testing.T) {
	in := pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))

	// Every non-positive budget means unbounded.
	if KeyOf(in, SolverConfig{MaxStates: -5}) != KeyOf(in, SolverConfig{MaxStates: 0}) {
		t.Errorf("MaxStates -5 and 0 key differently; both mean unbounded")
	}
}

// TestPartialKeyDomain: partial keys ignore the budget (one partial slot
// per instance+config; the budget lives on the entry for the serve
// guard) and can never collide with a complete key of the same instance.
func TestPartialKeyDomain(t *testing.T) {
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	sc100 := SolverConfig{Heuristic: 2, MaxStates: 100}
	sc900 := SolverConfig{Heuristic: 2, MaxStates: 900}

	if PartialKeyOf(in, sc100) != PartialKeyOf(in, sc900) {
		t.Errorf("partial keys differ across budgets; the budget belongs on the entry, not the key")
	}
	if PartialKeyOf(in, sc100) == KeyOf(in, sc100) {
		t.Errorf("partial and complete key collide for the same (instance, config)")
	}
	if KeyOf(in, sc100) == KeyOf(in, sc900) {
		t.Errorf("complete keys must include the budget")
	}
}

// TestKeyGolden pins KeyOf and PartialKeyOf for one fixed instance and
// config. Every key depends on keyVersion, so the pins move exactly when
// the encoding or the semantics of stored results change — a change that
// must bump keyVersion so a file store's old blobs become plain misses.
func TestKeyGolden(t *testing.T) {
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	sc := SolverConfig{Heuristic: 2, Dominance: true, MaxStates: 1000}
	if got, want := KeyOf(in, sc).String(), "bee9226f6a2d678782e1b56b551a8d2b"; got != want {
		t.Errorf("KeyOf = %s, want %s", got, want)
	}
	if got, want := PartialKeyOf(in, sc).String(), "d9ea6130eff3ce9de69bd485b6a1d096"; got != want {
		t.Errorf("PartialKeyOf = %s, want %s", got, want)
	}
}

// TestKeyString: 32 lowercase hex digits, zero-padded, usable as a file
// name.
func TestKeyString(t *testing.T) {
	s := (Key{Hi: 0xab, Lo: 1}).String()
	if len(s) != 32 || s != "00000000000000ab0000000000000001" {
		t.Errorf("Key.String() = %q", s)
	}
	if strings.ContainsAny(s, "/\\ ") {
		t.Errorf("key string %q is not a safe file name", s)
	}
}

// TestKeyOfConcurrent: fingerprinting shares no mutable state, so
// concurrent KeyOf calls over one instance must agree (run under -race).
func TestKeyOfConcurrent(t *testing.T) {
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	sc := SolverConfig{Heuristic: 2, MaxStates: 1000}
	want := KeyOf(in, sc)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := KeyOf(in, sc); got != want {
					t.Errorf("concurrent KeyOf = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
