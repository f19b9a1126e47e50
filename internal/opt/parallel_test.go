package opt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// Tests of the engine across worker counts: ModeDeterministic's whole
// Result is the same at every Workers setting, oracle equivalence holds
// at each setting, and so does the anytime contract, the incumbent-less
// LowerBound regression included.

// workerSweep is the worker-count grid the tests run: the inline path,
// two even splits, and a prime that exercises uneven shard ownership
// (ModeAsync shards across it; ModeDeterministic ignores it).
var workerSweep = []int{1, 2, 4, 7}

// TestExactWorkersMatchSequentialZoo is ModeDeterministic's contract on
// the zoo, with and without witness, at budgets unbounded, 1, 2, 10 and
// 100: the whole Result — Strategy bytes included — and the error are
// the same at every Workers setting (GOMAXPROCS resolution included) and
// equal ModeAsync's at one worker; a budget stop has expanded exactly
// MaxStates states; and every partial bracket contains the optimum.
func TestExactWorkersMatchSequentialZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, witness := range []bool{false, true} {
			optimum := int64(-1)
			for _, max := range []int{0, 1, 2, 10, 100} {
				tag := fmt.Sprintf("%s witness=%v budget=%d", c.name, witness, max)
				cfg := DefaultConfig(max)
				cfg.Witness = witness
				cfg.Mode, cfg.Workers = ModeAsync, 1
				want, wantErr := ExactWith(ctx, in, cfg)
				if want == nil {
					t.Fatalf("%s: async workers=1: %v", tag, wantErr)
				}
				switch {
				case max == 0:
					if wantErr != nil || want.Status != StatusComplete {
						t.Fatalf("%s: unbounded solve: status %v, %v", tag, want.Status, wantErr)
					}
					optimum = want.Cost
				case want.Status == StatusBudget:
					if want.States != max {
						t.Errorf("%s: budget stop after %d states, want exactly %d", tag, want.States, max)
					}
					incumbentOK(t, tag, want, optimum)
				case want.Status != StatusComplete || want.Cost != optimum:
					t.Errorf("%s: status %v cost %d, want a budget stop or the optimum %d",
						tag, want.Status, want.Cost, optimum)
				}
				for _, w := range append([]int{0}, workerSweep...) {
					cfg.Mode, cfg.Workers = ModeDeterministic, w
					got, err := ExactWith(ctx, in, cfg)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: workers=%d: error %v, async workers=1 error %v", tag, w, err, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: workers=%d differs from async workers=1:\n got  %+v %v\n want %+v %v",
							tag, w, got, got.Strategy, want, want.Strategy)
					}
				}
			}
		}
	}
}

// TestExactWorkersMatchOracleZoo runs table vs map-backed oracle at
// every worker setting: the two implementations perform the identical
// operation sequence, so every Result field (Pruned included) must
// match byte-for-byte.
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

// TestExactWorkersWitness checks the witness contract at every worker
// setting: the strategy must replay to exactly the optimal cost.
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
// when two goal states at the same cost were relaxed concurrently,
// whichever took the incumbent lock first supplied the witness, so
// repeated solves returned different strategies. ModeDeterministic now
// runs on one shard, so the witness must not depend on the worker count
// either: 200 solves at Workers=2 must all reconstruct the Workers=1
// strategy.
func TestExactWorkersWitnessStable(t *testing.T) {
	in := pebble.MustInstance(gen.IndependentChains(3, 2), pebble.MPP(1, 3, 2))
	cfg := DefaultConfig(budget)
	cfg.Witness = true
	cfg.Workers = 1
	first, err := ExactWith(context.Background(), in, cfg)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	want := first.Strategy.String()
	cfg.Workers = 2
	for i := 0; i < 200; i++ {
		res, err := ExactWith(context.Background(), in, cfg)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if got := res.Strategy.String(); got != want {
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
// same budget (ModeDeterministic runs one shard whatever Workers says,
// and a budget stop lands after exactly MaxStates expansions).
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
		if want.Status == StatusBudget && want.States != max {
			t.Errorf("budget %d: workers=1 stopped after %d states", max, want.States)
		}
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

// TestExactWorkersDefaultResolution checks the Workers=0 default end to
// end against the pinned sequential result.
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
