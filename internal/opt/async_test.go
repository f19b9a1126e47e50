package opt

// Tests of the sharded mode (Config.Mode == ModeAsync). The contract
// under test is narrower than ModeDeterministic's on purpose: Cost and
// Status must match the deterministic run exactly (at every worker
// count, under -race), witness strategies must replay to the optimum,
// and partial stops must return a sound anytime bracket — while
// States/Pruned/ReExpanded and traces are allowed to vary.
// scripts/verify.sh runs this file under -race as part of the full
// internal/opt race suite.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// TestAsyncMatchesDeterministicZoo is the headline equivalence property:
// for every zoo case and every worker count, ModeAsync completes with
// exactly the deterministic optimum (Cost, Incumbent and LowerBound all
// equal, Status complete). Run under -race this also exercises the
// quiescence-termination protocol end to end.
func TestAsyncMatchesDeterministicZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		want, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: deterministic: %v", c.name, err)
		}
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Workers = w
			cfg.Mode = ModeAsync
			got, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: async workers=%d: %v", c.name, w, err)
			}
			if got.Status != StatusComplete || got.Cost != want.Cost ||
				got.Incumbent != want.Cost || got.LowerBound != want.Cost {
				t.Errorf("%s: async workers=%d (status %v cost %d inc %d lb %d) ≠ deterministic optimum %d",
					c.name, w, got.Status, got.Cost, got.Incumbent, got.LowerBound, want.Cost)
			}
		}
	}
}

// TestAsyncWitnessReplays checks the witness contract in async mode: the
// reconstructed strategy must be valid and replay to the (deterministic)
// optimal cost at every worker count — the move sequence itself is
// timing-dependent and not asserted.
func TestAsyncWitnessReplays(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		want, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: deterministic: %v", c.name, err)
		}
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Witness = true
			cfg.Workers = w
			cfg.Mode = ModeAsync
			res, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: async witness workers=%d: %v", c.name, w, err)
			}
			if res.Strategy == nil {
				t.Fatalf("%s: async witness workers=%d: no strategy", c.name, w)
			}
			rep, err := pebble.Replay(in, res.Strategy)
			if err != nil {
				t.Fatalf("%s: async witness workers=%d: replay: %v", c.name, w, err)
			}
			if rep.Cost != want.Cost || res.Cost != want.Cost {
				t.Errorf("%s: async witness workers=%d: replay %d, result %d, optimum %d",
					c.name, w, rep.Cost, res.Cost, want.Cost)
			}
		}
	}
}

// TestAsyncPartialBudgetBracket sweeps tight budgets at every worker
// count: an async run under budget pressure must either complete at the
// true optimum (small zoo cases finish within the larger budgets) or
// stop with StatusBudget and a sound bracket — 0 ≤ LowerBound ≤ OPT,
// and any incumbent ≥ OPT. The bracket itself is timing-dependent; only
// its soundness is asserted.
func TestAsyncPartialBudgetBracket(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: full solve: %v", c.name, err)
		}
		for _, max := range []int{1, 2, 10, 100} {
			for _, w := range workerSweep {
				cfg := DefaultConfig(max)
				cfg.Workers = w
				cfg.Mode = ModeAsync
				res, err := ExactWith(ctx, in, cfg)
				if err == nil {
					if res.Status != StatusComplete || res.Cost != full.Cost {
						t.Errorf("%s: budget=%d workers=%d: clean return but (status %v, cost %d), want optimum %d",
							c.name, max, w, res.Status, res.Cost, full.Cost)
					}
					continue
				}
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("%s: budget=%d workers=%d: want ErrBudget, got %v", c.name, max, w, err)
				}
				if res.Status != StatusBudget {
					t.Errorf("%s: budget=%d workers=%d: status %v, want budget", c.name, max, w, res.Status)
				}
				if res.LowerBound < 0 || res.LowerBound > full.Cost {
					t.Errorf("%s: budget=%d workers=%d: lower bound %d outside [0, OPT=%d]",
						c.name, max, w, res.LowerBound, full.Cost)
				}
				if res.Incumbent >= 0 && res.Incumbent < full.Cost {
					t.Errorf("%s: budget=%d workers=%d: incumbent %d below optimum %d",
						c.name, max, w, res.Incumbent, full.Cost)
				}
				if res.Incumbent >= 0 && res.LowerBound > res.Incumbent {
					t.Errorf("%s: budget=%d workers=%d: inverted bracket [%d, %d]",
						c.name, max, w, res.LowerBound, res.Incumbent)
				}
			}
		}
	}
}

// TestAsyncCancel covers both deadline-style stops: a context canceled
// before the search starts must come back canceled with the sentinel
// incumbent at every worker count, and a cancellation racing a running
// multi-worker search must still land on a sound result — complete at
// the optimum or canceled with a sound bracket, nothing else.
func TestAsyncCancel(t *testing.T) {
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p) // grid2x3
	full, err := exactSeq(in, budget)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range workerSweep {
		cfg := DefaultConfig(budget)
		cfg.Workers = w
		cfg.Mode = ModeAsync
		res, err := ExactWith(ctx, in, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if res.Status != StatusCanceled || res.Incumbent != -1 || res.LowerBound < 0 {
			t.Errorf("workers=%d: canceled-at-entry result (status %v inc %d lb %d) unsound",
				w, res.Status, res.Incumbent, res.LowerBound)
		}
	}
	for rep := 0; rep < 5; rep++ {
		rctx, rcancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(rep) * 100 * time.Microsecond)
			rcancel()
		}()
		cfg := DefaultConfig(budget)
		cfg.Workers = 4
		cfg.Mode = ModeAsync
		res, err := ExactWith(rctx, in, cfg)
		rcancel()
		switch {
		case err == nil:
			if res.Status != StatusComplete || res.Cost != full.Cost {
				t.Errorf("rep %d: raced cancel completed with (status %v, cost %d), want optimum %d",
					rep, res.Status, res.Cost, full.Cost)
			}
		case errors.Is(err, context.Canceled):
			if res.LowerBound < 0 || res.LowerBound > full.Cost {
				t.Errorf("rep %d: raced cancel lower bound %d outside [0, OPT=%d]", rep, res.LowerBound, full.Cost)
			}
			if res.Incumbent >= 0 && res.Incumbent < full.Cost {
				t.Errorf("rep %d: raced cancel incumbent %d below optimum %d", rep, res.Incumbent, full.Cost)
			}
		default:
			t.Fatalf("rep %d: unexpected error %v", rep, err)
		}
	}
}

// TestAsyncStopLosesNoCandidate checks the exchange's books after every
// way a sharded run can end: complete, stopped by budgets 1, 2, 10 and
// 100, and canceled while it runs. It drives newEngine directly, so the
// engine can be inspected after run returns:
// by then every shipped candidate must sit in its owner's queue, with
// inflight at 0 and every mailbox and outgoing run empty. A candidate
// left behind would be missing from the frontier the anytime LowerBound
// is read from.
func TestAsyncStopLosesNoCandidate(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := exactSeq(in, budget)
		if err != nil {
			t.Fatalf("%s: full solve: %v", c.name, err)
		}
		newTab := func() hashtab.Index { return hashtab.New(stateWords(in.K), 1024) }
		for _, w := range []int{2, 4, 7} {
			for _, witness := range []bool{false, true} {
				for _, end := range []struct {
					max    int
					cancel bool
				}{{budget, false}, {1, false}, {2, false}, {10, false}, {100, false}, {budget, true}} {
					cfg := DefaultConfig(end.max)
					cfg.Mode, cfg.Workers, cfg.Witness = ModeAsync, w, witness
					ctx, cancel := context.WithCancel(context.Background())
					if end.cancel {
						// Race a cancel against the run.
						go func() {
							time.Sleep(time.Duration(w*10) * time.Microsecond)
							cancel()
						}()
					}
					tag := fmt.Sprintf("%s workers=%d witness=%v budget=%d cancel=%v", c.name, w, witness, end.max, end.cancel)
					eng := newEngine(ctx, in, cfg, newTab, false)
					res, err := eng.run()
					cancel()
					if err != nil && !errors.Is(err, ErrBudget) && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: %v", tag, err)
					}
					if n := atomic.LoadInt64(&eng.inflight); n != 0 {
						t.Errorf("%s: %d candidates still in flight", tag, n)
					}
					for dst := range eng.mail {
						if n := atomic.LoadInt64(&eng.mail[dst].pending); n != 0 || len(eng.mail[dst].run.costs) != 0 {
							t.Errorf("%s: shard %d's mailbox still holds %d candidates", tag, dst, len(eng.mail[dst].run.costs))
						}
					}
					for _, s := range eng.shards {
						for dst, r := range s.out {
							if len(r.costs) != 0 {
								t.Errorf("%s: shard %d never shipped %d candidates for shard %d", tag, s.shard, len(r.costs), dst)
							}
						}
					}
					if res.LowerBound > full.Cost {
						t.Errorf("%s: lower bound %d above OPT %d", tag, res.LowerBound, full.Cost)
					}
				}
			}
		}
	}
}
