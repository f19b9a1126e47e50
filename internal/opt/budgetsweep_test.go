package opt

import (
	"context"
	"testing"

	"repro/internal/pebble"
)

// TestBudgetSweepDeterminism samples the budget axis on every zoo case
// and pins the deterministic engine's partial-result contract off the
// wave grid: at each sampled MaxStates, Workers=4 must reproduce the
// Workers=1 Incumbent/States/LowerBound/Status exactly. This is the
// bounded successor of a PR 5 diagnostic that swept every third budget
// (thousands of solves, minutes of wall clock, dominating the package's
// shared test deadline); a spread of ~8 sample points per case catches
// the same class of wave-boundary regressions in a few seconds, and the
// dense sweep found nothing the samples miss.
func TestBudgetSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s full: %v", c.name, err)
		}
		// Fixed small budgets hit the earliest waves; the proportional
		// points land mid-search and just shy of completion.
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
			if w4.Incumbent != w1.Incumbent || w4.States != w1.States ||
				w4.LowerBound != w1.LowerBound || w4.Status != w1.Status {
				t.Errorf("%s budget=%d: w4 (inc %d states %d lb %d st %v) != w1 (inc %d states %d lb %d st %v)",
					c.name, max, w4.Incumbent, w4.States, w4.LowerBound, w4.Status,
					w1.Incumbent, w1.States, w1.LowerBound, w1.Status)
			}
		}
	}
}
