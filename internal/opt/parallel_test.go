package opt

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// Tests of the sharded wave-synchronous engine: byte-identical results
// across worker counts, oracle equivalence at each worker count, the
// anytime contract under sharding, and the incumbent-less LowerBound
// regression (ISSUE 5).

// workerSweep is the worker-count grid the determinism tests run: the
// inline path, two even splits, and a prime that exercises uneven
// shard ownership.
var workerSweep = []int{1, 2, 4, 7}

// TestExactWorkersMatchSequentialZoo locks the parallel solver to the
// single-worker run for every zoo case and worker count: Cost, States,
// Status, Incumbent, LowerBound and Pruned must all be byte-identical.
// Pruned is unconditional since the dead-state share started counting
// distinct dead states (order-independent) instead of improvement
// events — the ISSUE 6 stats unification.
func TestExactWorkersMatchSequentialZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		cfg := DefaultConfig(budget)
		cfg.Workers = 1
		want, err := ExactWith(ctx, in, cfg)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", c.name, err)
		}
		for _, w := range workerSweep[1:] {
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			if got.Cost != want.Cost || got.States != want.States ||
				got.Status != want.Status || got.Incumbent != want.Incumbent ||
				got.LowerBound != want.LowerBound {
				t.Errorf("%s: workers=%d (cost %d states %d status %v inc %d lb %d) ≠ workers=1 (cost %d states %d status %v inc %d lb %d)",
					c.name, w, got.Cost, got.States, got.Status, got.Incumbent, got.LowerBound,
					want.Cost, want.States, want.Status, want.Incumbent, want.LowerBound)
			}
			if got.Pruned != want.Pruned {
				t.Errorf("%s: workers=%d pruned %d ≠ workers=1 pruned %d",
					c.name, w, got.Pruned, want.Pruned)
			}
		}
	}
}

// TestExactWorkersMatchOracleZoo runs table vs map-backed oracle at
// every worker count: the two implementations perform the identical
// operation sequence per shard, so every Result field (Pruned included)
// must match byte-for-byte.
func TestExactWorkersMatchOracleZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			want, err := exactOracle(in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d oracle: %v", c.name, w, err)
			}
			if got.Cost != want.Cost || got.States != want.States ||
				got.Pruned != want.Pruned || got.Incumbent != want.Incumbent ||
				got.LowerBound != want.LowerBound || got.Status != want.Status {
				t.Errorf("%s: workers=%d table (cost %d states %d pruned %d) ≠ oracle (cost %d states %d pruned %d)",
					c.name, w, got.Cost, got.States, got.Pruned, want.Cost, want.States, want.Pruned)
			}
		}
	}
}

// TestExactWorkersWitness checks the witness contract under sharding:
// the strategy must replay to exactly the (worker-count-invariant)
// optimal cost. The move sequence itself may differ across worker
// counts — parent ties resolve by apply order — so only cost and
// validity are asserted.
func TestExactWorkersWitness(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		var optCost int64 = -1
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Witness = true
			cfg.Workers = w
			res, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			if res.Strategy == nil {
				t.Fatalf("%s: workers=%d: no strategy", c.name, w)
			}
			rep, err := pebble.Replay(in, res.Strategy)
			if err != nil {
				t.Fatalf("%s: workers=%d: replay: %v", c.name, w, err)
			}
			if rep.Cost != res.Cost {
				t.Errorf("%s: workers=%d: strategy replays to %d, result says %d",
					c.name, w, rep.Cost, res.Cost)
			}
			if optCost < 0 {
				optCost = res.Cost
			} else if res.Cost != optCost {
				t.Errorf("%s: workers=%d: cost %d ≠ workers=1 cost %d", c.name, w, res.Cost, optCost)
			}
		}
	}
}

// TestExactWorkersWitnessStable is the equal-cost incumbent regression:
// when two shards relaxed goal states at the same cost in one wave,
// whichever took the incumbent lock first supplied the witness, so
// repeated solves at a fixed worker count returned different strategies.
// The tie now resolves to the lowest (shard, index) ref, and 200 repeats
// must all reconstruct the same strategy.
func TestExactWorkersWitnessStable(t *testing.T) {
	in := pebble.MustInstance(gen.IndependentChains(3, 2), pebble.MPP(1, 3, 2))
	cfg := DefaultConfig(budget)
	cfg.Witness = true
	cfg.Workers = 2
	var want string
	for i := 0; i < 200; i++ {
		res, err := ExactWith(context.Background(), in, cfg)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		got := res.Strategy.String()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("solve %d returned a different witness:\n got  %s\n want %s", i, got, want)
		}
	}
}

// TestExactPartialLowerBoundRegression is the ISSUE 5 bugfix test: a
// budget=1 stop sees no feasible pebbling, so Incumbent is -1 — and
// LowerBound must still report the non-negative frontier bound instead
// of being clamped toward the sentinel. Checked at every worker count.
func TestExactPartialLowerBoundRegression(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, w := range workerSweep {
			cfg := DefaultConfig(1)
			cfg.Workers = w
			res, err := ExactWith(ctx, in, cfg)
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: workers=%d: want ErrBudget, got %v", c.name, w, err)
			}
			if res.Status != StatusBudget {
				t.Errorf("%s: workers=%d: status %v, want budget", c.name, w, res.Status)
			}
			if res.Incumbent != -1 {
				t.Errorf("%s: workers=%d: budget=1 found incumbent %d, want -1", c.name, w, res.Incumbent)
			}
			if !(res.LowerBound >= 0 && res.LowerBound > res.Incumbent) {
				t.Errorf("%s: workers=%d: want LowerBound >= 0 > Incumbent, got lb=%d inc=%d",
					c.name, w, res.LowerBound, res.Incumbent)
			}
		}
	}
}

// TestExactParallelAnytimeBracket sweeps budgets at several worker
// counts: each partial bracket must contain the true optimum, and the
// bracket must be byte-identical to the single-worker bracket at the
// same budget (budget stops land on deterministic wave boundaries).
func TestExactParallelAnytimeBracket(t *testing.T) {
	ctx := context.Background()
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p) // grid2x3
	full, err := exactSeq(in, budget)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	for _, max := range []int{1, 2, 10, 100} {
		cfg1 := DefaultConfig(max)
		cfg1.Workers = 1
		want, err1 := ExactWith(ctx, in, cfg1)
		for _, w := range workerSweep[1:] {
			cfg := DefaultConfig(max)
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if (err == nil) != (err1 == nil) {
				t.Fatalf("budget %d: workers=%d err %v vs workers=1 err %v", max, w, err, err1)
			}
			if got.LowerBound != want.LowerBound || got.Incumbent != want.Incumbent ||
				got.States != want.States || got.Status != want.Status {
				t.Errorf("budget %d: workers=%d bracket [%d,%d] states %d ≠ workers=1 [%d,%d] states %d",
					max, w, got.LowerBound, got.Incumbent, got.States,
					want.LowerBound, want.Incumbent, want.States)
			}
			if got.LowerBound > full.Cost {
				t.Errorf("budget %d: workers=%d lower bound %d exceeds optimum %d",
					max, w, got.LowerBound, full.Cost)
			}
			if got.Incumbent >= 0 && got.Incumbent < full.Cost {
				t.Errorf("budget %d: workers=%d incumbent %d below optimum %d",
					max, w, got.Incumbent, full.Cost)
			}
		}
	}
}

// TestExactParallelCancel cancels before the search starts: every
// worker count must come back canceled with the no-incumbent sentinel.
func TestExactParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	for _, w := range workerSweep {
		cfg := DefaultConfig(budget)
		cfg.Workers = w
		res, err := ExactWith(ctx, in, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if res.Status != StatusCanceled {
			t.Errorf("workers=%d: status %v, want canceled", w, res.Status)
		}
		if res.Incumbent != -1 {
			t.Errorf("workers=%d: incumbent %d, want -1", w, res.Incumbent)
		}
		if res.LowerBound < 0 {
			t.Errorf("workers=%d: negative lower bound %d", w, res.LowerBound)
		}
	}
}

// TestExactUnboundedCompletes is the MaxStates≤0 regression: the Config
// docs promise "non-positive means unbounded", so a zero-budget config
// must run to the proven optimum instead of stopping after one state.
func TestExactUnboundedCompletes(t *testing.T) {
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	want, err := exactSeq(in, budget)
	if err != nil {
		t.Fatalf("bounded: %v", err)
	}
	for _, max := range []int{0, -5} {
		res, err := ExactWith(context.Background(), in, Config{MaxStates: max, Dominance: true, Workers: 1})
		if err != nil {
			t.Fatalf("MaxStates=%d: %v", max, err)
		}
		if res.Status != StatusComplete || res.Cost != want.Cost {
			t.Errorf("MaxStates=%d: (status %v, cost %d), want complete cost %d",
				max, res.Status, res.Cost, want.Cost)
		}
	}
}

// TestExactWorkersDefaultResolution checks the Workers=0 path end to
// end (GOMAXPROCS resolution included) against the pinned sequential
// result.
func TestExactWorkersDefaultResolution(t *testing.T) {
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	want, err := exactSeq(in, budget)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := ExactWith(context.Background(), in, DefaultConfig(budget))
	if err != nil {
		t.Fatalf("workers=0: %v", err)
	}
	if got.Cost != want.Cost || got.States != want.States {
		t.Errorf("workers=0 (cost %d, states %d) ≠ sequential (cost %d, states %d)",
			got.Cost, got.States, want.Cost, want.States)
	}
}
