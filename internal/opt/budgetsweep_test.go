package opt

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pebble"
)

// TestBudgetSweepDeterminism samples the budget axis on every zoo case,
// off the fixed budgets TestExactWorkersMatchSequentialZoo runs, and
// pins ModeDeterministic's partial-result contract there: at each
// sampled MaxStates, Workers=4 must reproduce the Workers=1 Result
// exactly, and a budget stop must have expanded exactly MaxStates
// states. A spread of ~8 sample points per case — the earliest
// expansions, mid-search and just shy of completion — keeps the sweep
// to a few seconds.
func TestBudgetSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s full: %v", c.name, err)
		}
		budgets := []int{1, 2, 3, 5, 8,
			full.States / 3, 2 * full.States / 3, full.States - 1}
		for _, max := range budgets {
			if max < 1 || max >= full.States {
				continue
			}
			cfg1 := DefaultConfig(max)
			cfg1.Workers = 1
			w1, err1 := ExactWith(ctx, in, cfg1)
			cfg4 := DefaultConfig(max)
			cfg4.Workers = 4
			w4, err4 := ExactWith(ctx, in, cfg4)
			if (err1 == nil) != (err4 == nil) {
				t.Fatalf("%s budget=%d: w4 err %v vs w1 err %v", c.name, max, err4, err1)
			}
			if !reflect.DeepEqual(w4, w1) {
				t.Errorf("%s budget=%d: w4 (inc %d states %d lb %d st %v) != w1 (inc %d states %d lb %d st %v)",
					c.name, max, w4.Incumbent, w4.States, w4.LowerBound, w4.Status,
					w1.Incumbent, w1.States, w1.LowerBound, w1.Status)
			}
			if w1.Status == StatusBudget && w1.States != max {
				t.Errorf("%s budget=%d: budget stop after %d states, want exactly %d",
					c.name, max, w1.States, max)
			}
		}
	}
}
