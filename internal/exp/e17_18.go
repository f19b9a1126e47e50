package exp

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// E17AsyncRelaxation quantifies the Section 3.3 discussion of synchrony:
// evaluating each scheduler's strategy under the asynchronous relaxation
// (per-processor timelines, data-availability constraints) never makes it
// slower, and the gain stays within the factor-2 limit the paper cites
// from [29] — here measured per strategy across the zoo.
func E17AsyncRelaxation(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Section 3.3: synchronous vs asynchronous execution",
		Claim:   "MPP assumes synchronous moves; the improvement available from an asynchronous schedule is limited to a factor 2.",
		Columns: []string{"dag", "k", "scheduler", "sync cost", "async makespan", "sync/async"},
	}
	type workload struct {
		name string
		mk   func() *pebble.Instance
	}
	size := 6
	if cfg.Quick {
		size = 5
	}
	zoo := []workload{
		{"grid", func() *pebble.Instance {
			return pebble.MustInstance(gen.Grid2D(size, size), pebble.MPP(2, 4, 3))
		}},
		{"fft", func() *pebble.Instance {
			return pebble.MustInstance(gen.FFT(3), pebble.MPP(4, 4, 2))
		}},
		{"chains", func() *pebble.Instance {
			return pebble.MustInstance(gen.IndependentChains(4, 10), pebble.MPP(4, 2, 3))
		}},
		{"random", func() *pebble.Instance {
			g := gen.RandomDAG(40, 0.12, 3, 5)
			return pebble.MustInstance(g, pebble.MPP(3, g.MaxInDegree()+2, 3))
		}},
	}
	schedulers := []sched.Scheduler{
		sched.Baseline{},
		sched.Greedy{},
		sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"},
	}
	allSound := true
	withinTwo := true
	for _, w := range zoo {
		in := w.mk()
		bestCost := int64(-1)
		var bestRatio float64
		for _, s := range schedulers {
			strat, err := sched.ScheduleCtx(ctx, s, in)
			if err != nil {
				return nil, fmt.Errorf("E17 %s/%s: %w", w.name, s.Name(), err)
			}
			rep, err := pebble.Replay(in, strat)
			if err != nil {
				return nil, err
			}
			ms := pebble.AsyncMakespan(in, strat)
			if ms > rep.Cost {
				allSound = false
			}
			rt := float64(rep.Cost) / float64(ms)
			if bestCost == -1 || rep.Cost < bestCost {
				bestCost, bestRatio = rep.Cost, rt
			}
			t.AddRow(w.name, di(in.K), s.Name(), d64(rep.Cost), d64(ms), f2(rt))
		}
		if bestRatio > 2.0+1e-9 {
			withinTwo = false
		}
	}
	t.AddCheck("relaxation is sound", allSound,
		"the asynchronous makespan never exceeds the synchronous cost of the same strategy")
	t.AddCheck("factor-2 limit on good schedules", withinTwo,
		"the cheapest synchronous strategy per workload gains at most 2× from asynchrony, matching the bound the paper cites for optima")
	t.AddNote("the deliberately sequential Baseline can gain up to k× — the factor-2 statement concerns (near-)optimal schedules, where idle synchronous slots are already packed")
	return t, nil
}

// E18SurplusInapprox demonstrates Corollary 2: surplus cost (Definition 1)
// cannot be approximated to any finite factor. On the Theorem 2 reduction
// instances, a q-clique yields an MPP pebbling of surplus exactly 0, while
// its matched clique-free twin provably has surplus ≥ 1 (the exhaustive
// zero-I/O search rules out every perfect schedule) — so distinguishing
// surplus 0 from surplus > 0 already solves clique.
func E18SurplusInapprox(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Corollary 2: surplus-cost inapproximability",
		Claim:   "In MPP it is NP-hard to approximate the optimal surplus cost to any finite multiplicative factor (0 vs > 0 separation).",
		Columns: []string{"pair", "graph", "clique?", "surplus-0 schedule exists", "certified surplus"},
	}
	const q = 3
	pairs := e12Pairs()
	if cfg.Quick {
		pairs = pairs[:1]
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
			// A k=1 MPP pebbling has surplus 0 iff it computes every node
			// exactly once with zero I/O — i.e. iff a zero-I/O one-shot
			// schedule exists.
			zres, zerr := opt.ZeroIOBig(ctx, red.Graph, red.R, cfg.states(30_000_000))
			res, ok, err := zeroIOIn(t, fmt.Sprintf("E18 %s/%s", pair.name, side.tag), zres, zerr)
			if err != nil {
				return nil, err
			}
			if !ok {
				t.AddRow(pair.name, side.tag, boolMark(side.g.HasClique(q)),
					res.Verdict.String(), "—")
				continue
			}
			certified := ">= 1"
			if res.Feasible {
				// Convert the witness into an MPP strategy and certify
				// surplus 0 by replay under full MPP cost accounting.
				in := pebble.MustInstance(red.Graph, pebble.MPP(1, red.R, 4))
				rep, err := pebble.Replay(in, opt.ZeroIOStrategy(red.Graph, res.Order))
				if err != nil {
					return nil, err
				}
				sur := rep.Surplus(red.Graph.N(), 1)
				certified = f1(sur)
				if sur != 0 {
					allMatch = false
				}
			}
			if res.Feasible != side.g.HasClique(q) {
				allMatch = false
			}
			t.AddRow(pair.name, side.tag, boolMark(side.g.HasClique(q)),
				boolMark(res.Feasible), certified)
		}
	}
	t.AddCheck("surplus 0 ⟺ q-clique", allMatch,
		"surplus-0 MPP schedules exist exactly on the clique side of every matched pair; the clique-free twins are certified surplus ≥ 1 by exhaustive search")
	t.AddNote("the paper amplifies the gap to an additive n^(1-ε) via padding; the 0-vs-positive separation shown here is what makes any finite-factor approximation impossible")
	return t, nil
}
