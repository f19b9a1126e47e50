package exp

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/bsp"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// E14HardClasses illustrates Lemma 2: MPP is NP-hard already on 2-layer
// DAGs and on in-trees. We cannot test NP-hardness directly; instead we
// measure the two observable consequences on exactly those classes: the
// exact solver's explored state space grows exponentially, and greedy
// leaves a real optimality gap even on these structurally trivial DAGs.
func E14HardClasses(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Lemma 2: NP-hard DAG classes",
		Claim:   "MPP is already NP-hard on 2-layer DAGs and on in-trees.",
		Columns: []string{"class", "n", "k", "exact OPT", "states explored", "greedy", "gap"},
	}
	type shape struct{ sources, sinks int }
	sizes := []shape{{3, 3}, {4, 3}, {4, 4}}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	var twoLayerStates []int
	anyGap := false
	for _, sz := range sizes {
		g := gen.TwoLayerRandom(sz.sources, sz.sinks, 0.5, int64(sz.sources+sz.sinks))
		if !g.IsTwoLayer() {
			return nil, fmt.Errorf("E14: generator produced non-2-layer DAG")
		}
		in := pebble.MustInstance(g, pebble.MPP(2, g.MaxInDegree()+1, 3))
		res, ok, err := exactInCfg(ctx, cfg, t, in, e14Cfg(cfg))
		if err != nil {
			return nil, err
		}
		if !ok {
			t.AddRow("2-layer", di(g.N()), "2", "undecided", di(res.States), "—",
				bounds.FormatGap(res.LowerBound, res.Incumbent))
			continue
		}
		twoLayerStates = append(twoLayerStates, res.States)
		rep, err := sched.Run(sched.Greedy{}, in)
		if err != nil {
			return nil, err
		}
		if rep.Cost > res.Cost {
			anyGap = true
		}
		t.AddRow("2-layer", di(g.N()), "2", d64(res.Cost), di(res.States), d64(rep.Cost), f2(ratio(rep.Cost, res.Cost)))
	}
	trees := []struct {
		name string
		g    *dag.Graph
	}{
		{"intree-d2", gen.BinaryInTree(2)},
		{"caterpillar", caterpillarInTree(8)},
	}
	for _, tr := range trees {
		g := tr.g
		if !g.IsInTree() {
			return nil, fmt.Errorf("E14: %s is not an in-tree", tr.name)
		}
		in := pebble.MustInstance(g, pebble.MPP(2, 3, 3))
		res, ok, err := exactInCfg(ctx, cfg, t, in, e14Cfg(cfg))
		if err != nil {
			return nil, err
		}
		if !ok {
			t.AddRow("in-tree", di(g.N()), "2", "undecided", di(res.States), "—",
				bounds.FormatGap(res.LowerBound, res.Incumbent))
			continue
		}
		rep, err := sched.Run(sched.Greedy{}, in)
		if err != nil {
			return nil, err
		}
		if rep.Cost > res.Cost {
			anyGap = true
		}
		t.AddRow("in-tree", di(g.N()), "2", d64(res.Cost), di(res.States), d64(rep.Cost), f2(ratio(rep.Cost, res.Cost)))
	}
	grewFast := len(twoLayerStates) >= 2 &&
		twoLayerStates[len(twoLayerStates)-1] >= 4*twoLayerStates[0]
	for i := 1; i < len(twoLayerStates); i++ {
		if twoLayerStates[i] <= twoLayerStates[i-1] {
			grewFast = false
		}
	}
	t.AddCheck("state space explodes on 2-layer DAGs", grewFast,
		"explored exact-solver states grow steeply with size: %v", twoLayerStates)
	t.AddCheck("heuristics leave gaps on hard classes", anyGap,
		"greedy is strictly above the exact optimum on at least one instance of the NP-hard classes")
	return t, nil
}

// e14Cfg pins E14's exact runs to the bare compute floor without
// dominance pruning: the experiment's point is how fast the *raw* search
// space grows on the NP-hard classes, so the stronger default stack
// would measure the pruning instead of the hardness. (Partial rows still
// print brackets tightened by the max heuristic via exactInCfg.)
func e14Cfg(cfg Config) opt.Config {
	return opt.Config{MaxStates: cfg.states(30_000_000), Heuristic: opt.HeuristicFloor}
}

// caterpillarInTree builds an n-node in-tree shaped like a caterpillar:
// a spine v1←v2←…, each spine node with one extra leaf child.
func caterpillarInTree(n int) *dag.Graph {
	b := dag.NewBuilder("caterpillar")
	spineLen := n / 2
	spine := b.AddNodes(spineLen)
	for i := 1; i < spineLen; i++ {
		b.AddEdge(spine[i], spine[i-1])
	}
	for i := 0; i < n-spineLen; i++ {
		leaf := b.AddNode()
		b.AddEdge(leaf, spine[i%spineLen])
	}
	return b.MustBuild()
}

// E15BSPEquiv verifies the Section 3.3 equivalence: with r = ∞ (any
// r ≥ n), a BSP DAG schedule's analytic cost equals the replayed MPP cost
// of its mechanical translation, on a zoo of DAGs and parameters.
func E15BSPEquiv(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Section 3.3: MPP(r=∞) ≡ BSP DAG scheduling",
		Claim:   "With r = ∞ and minor adjustments, MPP becomes equivalent to DAG scheduling in the BSP model.",
		Columns: []string{"dag", "k", "g", "BSP cost (analytic)", "MPP replay cost", "equal"},
	}
	zoo := []struct {
		name string
		g    *dag.Graph
	}{
		{"fft", gen.FFT(3)},
		{"grid", gen.Grid2D(5, 4)},
		{"chains", gen.IndependentChains(4, 6)},
		{"random", gen.RandomDAG(40, 0.15, 4, 21)},
	}
	allEq := true
	for _, z := range zoo {
		if ctxDone(ctx, t, "E15 zoo") {
			return t, nil
		}
		g := z.g
		for _, k := range []int{2, 3} {
			for _, ioCost := range []int{1, 5} {
				s := bsp.LevelSchedule(g, k)
				if err := s.Validate(g); err != nil {
					return nil, err
				}
				want := s.Cost(g, ioCost)
				in := pebble.MustInstance(g, pebble.MPP(k, g.N()+1, ioCost))
				rep, err := pebble.Replay(in, s.Convert(g))
				if err != nil {
					return nil, err
				}
				eq := rep.Cost == want
				allEq = allEq && eq
				t.AddRow(z.name, di(k), di(ioCost), d64(want), d64(rep.Cost), boolMark(eq))
			}
		}
	}
	t.AddCheck("cost equivalence", allEq,
		"Σ_s(W_s + g·(h_out+h_in)) equals the replayed MPP cost for every schedule in the zoo")
	return t, nil
}

// E16EvictionAblation ablates the greedy scheduler's policy plugins
// (selection rule, tie-break, eviction) across workloads — motivating the
// design choice of making Lemma 4's greedy class fully parameterized.
func E16EvictionAblation(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Ablation: greedy policy choices",
		Claim:   "(design ablation, not a paper claim) The Lemma 4 greedy class is policy-parameterized; eviction and tie-breaking change costs materially.",
		Columns: []string{"dag", "policy", "cost", "io-actions", "vs best"},
	}
	type workload struct {
		name string
		g    *dag.Graph
		k    int
	}
	zg, _ := gen.Zipper(4, 24, 0)
	fft := gen.FFT(4)
	if cfg.Quick {
		fft = gen.FFT(3)
	}
	workloads := []workload{
		{"zipper", zg, 1},
		{"fft", fft, 2},
		{"grid", gen.Grid2D(6, 6), 2},
	}
	spread := false
	for _, w := range workloads {
		in := pebble.MustInstance(w.g, pebble.MPP(w.k, w.g.MaxInDegree()+2, 3))
		best := int64(-1)
		costs := map[string]*pebble.Report{}
		for _, gv := range greedyVariants() {
			rep, err := sched.RunCtx(ctx, gv, in)
			if err != nil {
				return nil, err
			}
			costs[gv.Name()] = rep
			if best == -1 || rep.Cost < best {
				best = rep.Cost
			}
		}
		worst := int64(0)
		for _, gv := range greedyVariants() {
			rep := costs[gv.Name()]
			if rep.Cost > worst {
				worst = rep.Cost
			}
			t.AddRow(w.name, gv.Name(), d64(rep.Cost), di(rep.IOActions), f2(ratio(rep.Cost, best)))
		}
		if worst > best {
			spread = true
		}
	}
	t.AddCheck("policies differ", spread,
		"at least one workload separates the greedy policy variants")
	return t, nil
}
