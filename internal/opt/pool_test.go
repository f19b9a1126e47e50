package opt

// Tests of the solver arena pool. The pool's correctness bar is
// byte-identity: a pool-recycled solver must be indistinguishable from a
// fresh one, which the map-backed oracle (never pooled, see pool.go)
// provides the clean baseline for. Each batch test solves a list of
// instances back to back, so from the second solve on every solver is a
// recycled one.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// zooInstances returns the zoo as a batch of instances, with names.
func zooInstances() ([]*pebble.Instance, []string) {
	var ins []*pebble.Instance
	var names []string
	for _, c := range zooCases() {
		ins = append(ins, pebble.MustInstance(c.g, c.p))
		names = append(names, c.name)
	}
	return ins, names
}

// TestSolveBatchMatchesOracleZoo solves the whole zoo (mixed k, so the
// packed key width changes between consecutive instances — the table-
// reuse guard's hard case) back to back three times over, at one and at
// four workers, and requires every Result to be byte-identical to the
// unpooled oracle run.
func TestSolveBatchMatchesOracleZoo(t *testing.T) {
	ctx := context.Background()
	ins, names := zooInstances()
	for _, w := range []int{1, 4} {
		cfg := DefaultConfig(budget)
		cfg.Workers = w
		for round := 0; round < 3; round++ {
			for i, in := range ins {
				g, err := ExactWith(ctx, in, cfg)
				if err != nil {
					t.Fatalf("%s: workers=%d round=%d: %v", names[i], w, round, err)
				}
				want, err := exactOracle(in, cfg)
				if err != nil {
					t.Fatalf("%s: oracle: %v", names[i], err)
				}
				if g.Cost != want.Cost || g.States != want.States || g.Pruned != want.Pruned ||
					g.Incumbent != want.Incumbent || g.LowerBound != want.LowerBound ||
					g.Status != want.Status || g.ReExpanded != want.ReExpanded {
					t.Errorf("%s: workers=%d round=%d: pooled (cost %d states %d pruned %d) ≠ oracle (cost %d states %d pruned %d)",
						names[i], w, round, g.Cost, g.States, g.Pruned, want.Cost, want.States, want.Pruned)
				}
			}
		}
	}
}

// TestSolveBatchWitnessReuse recycles witness-mode solvers (the parent
// arrays join the arena reuse) and checks each reconstructed strategy
// still replays to its own instance's optimum.
func TestSolveBatchWitnessReuse(t *testing.T) {
	ins, _ := zooInstances()
	for round := 0; round < 2; round++ {
		for i, in := range ins {
			res, err := witnessSeq(in, budget)
			if err != nil {
				t.Fatalf("round=%d instance=%d: %v", round, i, err)
			}
			if res.Strategy == nil {
				t.Fatalf("round=%d instance=%d: no strategy", round, i)
			}
			rep, err := pebble.Replay(in, res.Strategy)
			if err != nil {
				t.Fatalf("round=%d instance=%d: replay: %v", round, i, err)
			}
			if rep.Cost != res.Cost {
				t.Errorf("round=%d instance=%d: strategy replays to %d, result says %d",
					round, i, rep.Cost, res.Cost)
			}
		}
	}
}

// TestSolveBatchAsync solves the zoo back to back in async mode: every
// solve must land on the deterministic optimum.
func TestSolveBatchAsync(t *testing.T) {
	ctx := context.Background()
	ins, names := zooInstances()
	cfg := DefaultConfig(budget)
	cfg.Workers = 4
	cfg.Mode = ModeAsync
	for i, in := range ins {
		want, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		res, err := ExactWith(ctx, in, cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if res.Cost != want.Cost {
			t.Errorf("%s: async cost %d, want %d", names[i], res.Cost, want.Cost)
		}
	}
}

// TestSolveBatchCanceled: back-to-back solves under a canceled context
// each report their own canceled partial result, and a canceled solve
// hands its solvers back to the pool in a reusable state.
func TestSolveBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ins, _ := zooInstances()
	for i, in := range ins[:3] {
		res, err := ExactWith(ctx, in, DefaultConfig(budget))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("instance %d: want context.Canceled, got %v", i, err)
		}
		if res == nil || res.Status != StatusCanceled {
			t.Errorf("instance %d: missing canceled partial result", i)
		}
	}
	if res, err := exactSeq(ins[0], budget); err != nil || res.Status != StatusComplete {
		t.Errorf("solve after canceled batch: result %+v, err %v", res, err)
	}
}

// drainSolverPool empties the package solver pool, returning everything
// it held. Tests drain before a scenario (isolation from earlier tests)
// and after (to inspect what release() chose to keep).
func drainSolverPool() []*solver {
	var out []*solver
	for {
		v := solverPool.Get()
		if v == nil {
			return out
		}
		out = append(out, v.(*solver))
	}
}

// TestReleaseDropsOversizedArenas is the pool-retention regression test:
// a batch mixing one huge search with small ones must not leave the
// huge search's arenas in the pool, where they would pin worst-case
// memory for the process lifetime. Against the pre-guard release() (an
// unconditional solverPool.Put) the drained solver still holds the big
// solve's arenas and the assertion fails; with the oversize guard the
// big arenas are dropped on release. GC can empty a sync.Pool at any
// time, which could only ever hide a failure, never fabricate one — the
// assertion is on what IS in the pool, and the Put→Get pairs below run
// back to back.
func TestReleaseDropsOversizedArenas(t *testing.T) {
	oldMax := maxPooledArenaBytes
	maxPooledArenaBytes = 256 << 10
	defer func() { maxPooledArenaBytes = oldMax }()
	drainSolverPool()

	// Floor heuristic, no dominance: the weakest configuration, so the
	// grid3x3 search genuinely exhausts its 20k-state budget (the
	// default stack proves this instance in a few dozen expansions).
	big := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 4, 2))
	small := pebble.MustInstance(gen.Chain(5), pebble.MPP(2, 2, 3))
	cfg := Config{MaxStates: 20_000, Heuristic: HeuristicFloor, Workers: 1}

	ctx := context.Background()
	bigRes, err := ExactWith(ctx, big, cfg)
	if bigRes == nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("big solve: want a budget-stopped partial, got result %v err %v", bigRes, err)
	}
	for i := 0; i < 2; i++ {
		if res, err := ExactWith(ctx, small, cfg); err != nil || res.Status != StatusComplete {
			t.Fatalf("small solve %d: %v", i, err)
		}
	}
	// Precondition: the big search's state table alone (every expanded
	// state is an inserted key of stateWords(k) words) must exceed the
	// lowered threshold, or the scenario stops exercising the guard.
	if minBytes := int64(bigRes.States) * int64(stateWords(big.K)) * 8; minBytes <= maxPooledArenaBytes {
		t.Fatalf("big solve expanded only %d states (≥%d table bytes) — below the %d-byte threshold; grow the instance or budget",
			bigRes.States, minBytes, maxPooledArenaBytes)
	}

	for _, s := range drainSolverPool() {
		if b := s.arenaBytes(); b > maxPooledArenaBytes {
			t.Errorf("pool retains a solver with %d arena bytes (threshold %d): oversized arenas must be dropped on release",
				b, maxPooledArenaBytes)
		}
	}

	// A solver whose only oversized arena is the dominance index's
	// record arena. Every other arena is empty, and the index's slot
	// array stays at its initial size: 64 keys, each with 256 records
	// (reds (i, ^i) never cover one another). If arenaBytes left the
	// records out, the solver would look small and be pooled.
	const k = 2
	dom := newDomIndex(k)
	for i := uint64(0); i < 64*256; i++ {
		dom.add(0, i%64, 1, []uint64{i, ^i})
	}
	if recBytes := int64(len(dom.recs)) * 8; recBytes <= maxPooledArenaBytes {
		t.Fatalf("record arena holds %d bytes, not past the %d-byte threshold", recBytes, maxPooledArenaBytes)
	}
	domOnly := &solver{dom: dom}
	(&engine{pooled: true, shards: []*solver{domOnly}}).release()
	for _, s := range drainSolverPool() {
		if s == domOnly {
			t.Errorf("pool retains a solver whose dominance index holds %d record words (threshold %d bytes): the records must count as arena bytes",
				len(dom.recs), maxPooledArenaBytes)
		}
	}
}

// TestReleaseKeepsModestArenas guards the other direction: ordinary
// solves stay pooled under the default threshold, so the recycling that
// the allocation budgets depend on still happens.
func TestReleaseKeepsModestArenas(t *testing.T) {
	drainSolverPool()
	in := pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))
	res, err := exactSeq(in, budget)
	if err != nil || res.Status != StatusComplete {
		t.Fatalf("exactSeq: status %v, err %v", res.Status, err)
	}
	kept := drainSolverPool()
	if len(kept) == 0 {
		// A GC between release and drain can legitimately empty the
		// pool; don't fail on scheduling noise, just report.
		t.Skip("pool empty after solve (GC ran?); nothing to assert")
	}
	for _, s := range kept {
		if b := s.arenaBytes(); b > maxPooledArenaBytes {
			t.Errorf("modest solve pooled %d arena bytes > default threshold %d", b, maxPooledArenaBytes)
		}
	}
}
