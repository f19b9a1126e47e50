package sched

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/pebble"
)

func TestImproveNeverWorseAndAlwaysValid(t *testing.T) {
	for name, g := range zoo() {
		for _, k := range []int{1, 2, 4} {
			in := pebble.MustInstance(g, pebble.MPP(k, g.MaxInDegree()+2, 3))
			for _, s := range allSchedulers() {
				strat, err := s.Schedule(in)
				if err != nil {
					t.Fatalf("%s on %s: %v", s.Name(), name, err)
				}
				before, err := pebble.Replay(in, strat)
				if err != nil {
					t.Fatal(err)
				}
				improved, after, err := Improve(in, strat)
				if err != nil {
					t.Fatalf("%s on %s: Improve: %v", s.Name(), name, err)
				}
				if after.Cost > before.Cost {
					t.Errorf("%s on %s k=%d: Improve raised cost %d → %d",
						s.Name(), name, k, before.Cost, after.Cost)
				}
				if _, err := pebble.Replay(in, improved); err != nil {
					t.Errorf("%s on %s: improved strategy invalid: %v", s.Name(), name, err)
				}
			}
		}
	}
}

func TestImprovePacksBaselineIO(t *testing.T) {
	// Baseline emits strictly sequential singleton moves on round-robin
	// processors; on a wide DAG (independent nodes land on different
	// processors) the repacking pass must merge a substantial share of
	// them into parallel moves.
	g := gen.TwoLayerRandom(8, 24, 0.2, 1)
	in := pebble.MustInstance(g, pebble.MPP(4, g.MaxInDegree()+1, 5))
	strat, err := Baseline{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := pebble.Replay(in, strat)
	_, after, err := Improve(in, strat)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost >= before.Cost {
		t.Errorf("no improvement: %d → %d", before.Cost, after.Cost)
	}
	if float64(after.Cost) > 0.5*float64(before.Cost) {
		t.Errorf("packing too weak: %d → %d", before.Cost, after.Cost)
	}
	// Pipelined case: consecutive chain nodes alternate processors, so
	// only pipeline overlap is available; Improve must still help.
	gc := gen.IndependentChains(4, 8)
	inc := pebble.MustInstance(gc, pebble.MPP(4, 3, 5))
	sc, err := Baseline{}.Schedule(inc)
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := pebble.Replay(inc, sc)
	_, ac, err := Improve(inc, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Cost >= bc.Cost {
		t.Errorf("no pipeline improvement on chains: %d → %d", bc.Cost, ac.Cost)
	}
}

func TestImproveDropsPlantedWaste(t *testing.T) {
	// Hand-build a strategy with obvious waste: double writes, reads of
	// red nodes, and a write never used.
	g := gen.Chain(3)
	in := pebble.MustInstance(g, pebble.MPP(1, 3, 4))
	s := &pebble.Strategy{}
	s.Append(
		pebble.Compute(pebble.At(0, 0)),
		pebble.Write(pebble.At(0, 0)), // dead: never read, not a sink in need
		pebble.Compute(pebble.At(0, 1)),
		pebble.Write(pebble.At(0, 1)),
		pebble.Write(pebble.At(0, 1)), // duplicate write
		pebble.Read(pebble.At(0, 1)),  // read of an already-red node
		pebble.Compute(pebble.At(0, 2)),
	)
	before, err := pebble.Replay(in, s)
	if err != nil {
		t.Fatal(err)
	}
	improved, after, err := Improve(in, s)
	if err != nil {
		t.Fatal(err)
	}
	// All four I/O moves are waste: the chain pebbles through compute
	// moves alone. Expected final cost: 3 computes.
	if after.Cost != 3 {
		t.Errorf("cost = %d after improvement, want 3 (before %d); strategy: %s",
			after.Cost, before.Cost, improved)
	}
}

func TestImproveKeepsNeededWrites(t *testing.T) {
	// A sink whose only pebble at the end is blue must keep its write.
	g := gen.Chain(2)
	in := pebble.MustInstance(g, pebble.MPP(1, 2, 4))
	s := &pebble.Strategy{}
	s.Append(
		pebble.Compute(pebble.At(0, 0)),
		pebble.Compute(pebble.At(0, 1)),
		pebble.Write(pebble.At(0, 1)),
		pebble.Delete(pebble.At(0, 0), pebble.At(0, 1)),
	)
	improved, after, err := Improve(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if after.IOActions != 1 {
		t.Errorf("needed sink write was dropped: %s", improved)
	}
}

func TestQuickImproveOnRandomGreedy(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomDAG(8+rng.Intn(30), 0.15, 3, seed)
		k := 1 + rng.Intn(4)
		in := pebble.MustInstance(g, pebble.MPP(k, g.MaxInDegree()+2, 1+rng.Intn(5)))
		strat, err := (Greedy{}).Schedule(in)
		if err != nil {
			return false
		}
		before, err := pebble.Replay(in, strat)
		if err != nil {
			return false
		}
		improved, after, err := Improve(in, strat)
		if err != nil {
			return false
		}
		if _, err := pebble.Replay(in, improved); err != nil {
			return false
		}
		return after.Cost <= before.Cost
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeGreedyBeatsGreedyOnZipper(t *testing.T) {
	// Tail-less zipper with expensive I/O: recomputing the swapped-out
	// group (all sources) costs d per chain node; plain greedy pays d·g.
	d, n0, ioCost := 4, 24, 8
	g, _ := gen.Zipper(d, n0, 0)
	in := pebble.MustInstance(g, pebble.MPP(1, d+2, ioCost))
	plain, err := Run(Greedy{}, in)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(RecomputeGreedy{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost >= plain.Cost {
		t.Fatalf("recompute greedy %d not below plain greedy %d", rec.Cost, plain.Cost)
	}
	if rec.Recomputations == 0 {
		t.Error("recompute greedy never recomputed")
	}
	// Should be within 2× of the recomputation optimum ≈ n + (d+1)·chain.
	optApprox := int64(g.N() + (d+1)*(n0-1))
	if rec.Cost > 2*optApprox {
		t.Errorf("recompute greedy cost %d far above recompute optimum ≈ %d", rec.Cost, optApprox)
	}
}

func TestRecomputeGreedyValidOnZoo(t *testing.T) {
	for name, g := range zoo() {
		in := pebble.MustInstance(g, pebble.MPP(2, g.MaxInDegree()+2, 4))
		rep, err := Run(RecomputeGreedy{MaxClosure: 3}, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.ComputeActions < g.N() {
			t.Errorf("%s: only %d of %d nodes computed", name, rep.ComputeActions, g.N())
		}
	}
}

func TestRandomRestartGreedy(t *testing.T) {
	for name, g := range zoo() {
		in := pebble.MustInstance(g, pebble.MPP(2, g.MaxInDegree()+2, 3))
		rep, err := Run(RandomRestartGreedy{Seed: 1, Restarts: 4}, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.ComputeActions < g.N() {
			t.Errorf("%s: incomplete computation", name)
		}
	}
	// Determinism for a fixed seed.
	g := gen.RandomDAG(30, 0.15, 3, 4)
	in := pebble.MustInstance(g, pebble.MPP(3, g.MaxInDegree()+2, 3))
	a, err := Run(RandomRestartGreedy{Seed: 7}, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RandomRestartGreedy{Seed: 7}, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("same seed, different costs: %d vs %d", a.Cost, b.Cost)
	}
	// Never worse than the best deterministic greedy by more than noise;
	// often better. Just sanity-check it is within the Lemma 1 bounds.
	if a.Cost > bounds.Lemma1Upper(in) || a.Cost < bounds.Lemma1Lower(in) {
		t.Errorf("random greedy cost %d outside Lemma 1 bounds", a.Cost)
	}
}

func TestRandomRestartGreedyCancellation(t *testing.T) {
	g := gen.RandomDAG(40, 0.1, 3, 2)
	in := pebble.MustInstance(g, pebble.MPP(2, g.MaxInDegree()+2, 3))

	// Already-cancelled context, no completed restart: typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (RandomRestartGreedy{Seed: 1}).ScheduleCtx(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from cancelled ctx, got %v", err)
	}

	// ScheduleCtx with a live context matches the plain Schedule result
	// (anytime must not perturb the deterministic restart sequence).
	full, err := Run(RandomRestartGreedy{Seed: 3, Restarts: 4}, in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RandomRestartGreedy{Seed: 3, Restarts: 4}.ScheduleCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pebble.Replay(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != full.Cost {
		t.Errorf("ScheduleCtx cost %d != Schedule cost %d", rep.Cost, full.Cost)
	}

	// ScheduleCtx dispatch: a plain Scheduler without ctx support still runs.
	if _, err := ScheduleCtx(context.Background(), Baseline{}, in); err != nil {
		t.Fatalf("ScheduleCtx(Baseline): %v", err)
	}
}

func TestRepackPreservesWriteReadDependency(t *testing.T) {
	// A write and its dependent read on different processors must stay
	// ordered even when repacking pulls everything as early as possible.
	g := gen.Chain(2)
	in := pebble.MustInstance(g, pebble.MPP(2, 2, 3))
	s := &pebble.Strategy{}
	s.Append(
		pebble.Compute(pebble.At(0, 0)),
		pebble.Write(pebble.At(0, 0)),
		pebble.Read(pebble.At(1, 0)),
		pebble.Compute(pebble.At(1, 1)),
	)
	improved, rep, err := Improve(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pebble.Replay(in, improved); err != nil {
		t.Fatalf("repacked strategy invalid: %v", err)
	}
	if rep.Cost > 8 {
		t.Errorf("cost %d unexpectedly high", rep.Cost)
	}
}

func TestImproveIdempotent(t *testing.T) {
	g := gen.FFT(3)
	in := pebble.MustInstance(g, pebble.MPP(2, 4, 3))
	s, err := Baseline{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	once, r1, err := Improve(in, s)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := Improve(in, once)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cost != r1.Cost {
		t.Errorf("Improve not idempotent: %d then %d", r1.Cost, r2.Cost)
	}
}
