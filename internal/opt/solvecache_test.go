package opt

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/gen"
	"repro/internal/pebble"
)

// TestSolveCachedByteIdenticalZoo is the acceptance property: over the
// whole DAG zoo, plain and witness configs, a cache hit returns a Result
// byte-identical (reflect.DeepEqual) to the fresh deterministic solve it
// memoized — States, Pruned, LowerBound and Strategy included. Run under
// -race via scripts/verify.sh's internal/opt pass.
func TestSolveCachedByteIdenticalZoo(t *testing.T) {
	ctx := context.Background()
	for _, tc := range zooCases() {
		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"plain", DefaultConfig(budget)},
			{"witness", Config{MaxStates: budget, Heuristic: HeuristicMax, Witness: true}},
		} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				in := pebble.MustInstance(tc.g, tc.p)
				fresh, err := ExactWith(ctx, in, mode.cfg)
				if err != nil {
					t.Fatalf("fresh solve: %v", err)
				}
				sc := NewSolveCache(cache.Options{})
				if res, err := SolveCached(ctx, in, mode.cfg, sc); err != nil || res.Status != StatusComplete {
					t.Fatalf("priming solve: %v", err)
				}
				hit, err := SolveCached(ctx, in, mode.cfg, sc)
				if err != nil {
					t.Fatalf("cached solve: %v", err)
				}
				if !reflect.DeepEqual(hit, fresh) {
					t.Errorf("cache hit differs from fresh solve:\n hit:   %+v\n fresh: %+v", hit, fresh)
				}
				if st := sc.Stats(); st.Hits != 1 || st.Misses != 1 {
					t.Errorf("stats = %+v; want exactly 1 hit, 1 miss", st)
				}
			})
		}
	}
}

// TestSolveCachedWitnessDominance: Dominance (lazy deletion) changes a
// witness solve's Result (grid2x3 expands 134 states with it, 316
// without), so witness solves with it on and off must not share a cache
// entry. Both go
// through one cache, and each hit must equal its own fresh solve.
func TestSolveCachedWitnessDominance(t *testing.T) {
	ctx := context.Background()
	for _, tc := range zooCases() {
		in := pebble.MustInstance(tc.g, tc.p)
		sc := NewSolveCache(cache.Options{})
		for _, dom := range []bool{true, false, true, false} {
			cfg := Config{MaxStates: budget, Heuristic: HeuristicMax, Dominance: dom, Witness: true}
			fresh, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s dom=%v: fresh solve: %v", tc.name, dom, err)
			}
			got, err := SolveCached(ctx, in, cfg, sc)
			if err != nil {
				t.Fatalf("%s dom=%v: cached solve: %v", tc.name, dom, err)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s dom=%v: cached Result (%d states, %d pruned) ≠ fresh (%d states, %d pruned)",
					tc.name, dom, got.States, got.Pruned, fresh.States, fresh.Pruned)
			}
		}
		if st := sc.Stats(); st.Hits != 2 || st.Misses != 2 {
			t.Errorf("%s: stats = %+v; want 2 hits, 2 misses", tc.name, st)
		}
	}
}

// partialCfg is a configuration under which grid3x3 at k=2 cannot finish:
// the weakest heuristic, no dominance, so the given budget genuinely
// stops the search with a StatusBudget bracket.
func partialCfg(maxStates int) Config {
	return Config{MaxStates: maxStates, Heuristic: HeuristicFloor, Workers: 1}
}

func grid3x3k2(t *testing.T) *pebble.Instance {
	t.Helper()
	return pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 4, 2))
}

// TestSolveCachedPartialEqualBudget: an equal-budget repeat of a
// budget-stopped solve hits the partial store and reproduces the fresh
// run byte-for-byte — Result AND error text (deterministic partials are
// pure functions of instance, config and budget).
func TestSolveCachedPartialEqualBudget(t *testing.T) {
	ctx := context.Background()
	in := grid3x3k2(t)
	cfg := partialCfg(1000)

	fresh, ferr := ExactWith(ctx, in, cfg)
	if !errors.Is(ferr, ErrBudget) || fresh.Status != StatusBudget {
		t.Fatalf("want a budget-stopped partial, got status %v err %v", fresh.Status, ferr)
	}

	sc := NewSolveCache(cache.Options{})
	if res, err := SolveCached(ctx, in, cfg, sc); !errors.Is(err, ErrBudget) || res.Status != StatusBudget {
		t.Fatalf("priming solve: %v", err)
	}
	hit, herr := SolveCached(ctx, in, cfg, sc)
	if !errors.Is(herr, ErrBudget) {
		t.Fatalf("cached partial: %v", herr)
	}
	if !reflect.DeepEqual(hit, fresh) {
		t.Errorf("partial hit differs from fresh partial:\n hit:   %+v\n fresh: %+v", hit, fresh)
	}
	if herr.Error() != ferr.Error() {
		t.Errorf("partial hit error %q, fresh error %q", herr, ferr)
	}
	if st := sc.Stats(); st.PartialHits != 1 {
		t.Errorf("stats = %+v; want 1 partial hit", st)
	}
}

// TestSolveCachedBudgetLaundering is the guard regression: a bracket
// cached under MaxStates=1000 must never be served to a MaxStates=8
// caller (whose own search would have stopped far earlier and learned
// less) — the tight request re-solves fresh under its own budget. The
// looser direction (budget 5000) is legitimately served the stored
// bracket: it is at most what that caller's own solve would have proven.
func TestSolveCachedBudgetLaundering(t *testing.T) {
	ctx := context.Background()
	in := grid3x3k2(t)

	sc := NewSolveCache(cache.Options{})
	primed, err := SolveCached(ctx, in, partialCfg(1000), sc)
	if !errors.Is(err, ErrBudget) || primed.Status != StatusBudget {
		t.Fatalf("want a budget-1000 partial, got status %v err %v", primed.Status, err)
	}

	// Looser caller first (the tight request below overwrites the single
	// partial slot with its own smaller bracket): served the stored one.
	loose, lerr := SolveCached(ctx, in, partialCfg(5000), sc)
	if !errors.Is(lerr, ErrBudget) {
		t.Fatalf("loose partial: %v", lerr)
	}
	if loose.States != primed.States {
		t.Errorf("loose caller got States=%d, want the stored bracket's %d", loose.States, primed.States)
	}
	if st := sc.Stats(); st.PartialHits != 1 {
		t.Errorf("after loose call: stats = %+v; want 1 partial hit", st)
	}

	// Tight caller: rejected by the guard, then byte-identical to its own
	// fresh budget-8 solve.
	freshTight, fterr := ExactWith(ctx, in, partialCfg(8))
	if !errors.Is(fterr, ErrBudget) {
		t.Fatalf("fresh tight solve: %v", fterr)
	}
	tight, terr := SolveCached(ctx, in, partialCfg(8), sc)
	if !errors.Is(terr, ErrBudget) {
		t.Fatalf("tight solve through cache: %v", terr)
	}
	if !reflect.DeepEqual(tight, freshTight) {
		t.Errorf("tight caller's result differs from its own fresh solve:\n got:   %+v\n fresh: %+v", tight, freshTight)
	}
	if tight.States >= primed.States {
		t.Errorf("tight caller expanded %d states, not fewer than the wide bracket's %d — laundering?", tight.States, primed.States)
	}
	if st := sc.Stats(); st.BudgetRejects != 1 {
		t.Errorf("stats = %+v; want exactly 1 budget reject", st)
	}
}

// TestSolveCachedCloneIsolation: callers own the Result a solve returns
// and may mutate it (exp.raiseLowerBound does); a mutation must never
// reach later hits.
func TestSolveCachedCloneIsolation(t *testing.T) {
	ctx := context.Background()
	in := pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))
	cfg := Config{MaxStates: budget, Heuristic: HeuristicMax, Witness: true}

	sc := NewSolveCache(cache.Options{})
	first, err := SolveCached(ctx, in, cfg, sc)
	if err != nil {
		t.Fatalf("priming solve: %v", err)
	}
	want := cloneResult(first)

	first.LowerBound = -999
	if first.Strategy == nil || first.Strategy.Len() == 0 {
		t.Fatal("witness solve returned no strategy")
	}
	first.Strategy.Move(0).Actions[0] = pebble.Action{Proc: 7, Node: 7}
	first.Strategy.Append(pebble.Delete(pebble.Blue(0)))

	second, err := SolveCached(ctx, in, cfg, sc)
	if err != nil {
		t.Fatalf("cached solve: %v", err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("caller mutation leaked into the cache:\n got:  %+v\n want: %+v", second, want)
	}
}

// TestSolveCachedFileStore: results persist across SolveCache instances
// through the gob-coded file store, witness strategies included.
func TestSolveCachedFileStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	cfg := Config{MaxStates: budget, Heuristic: HeuristicMax, Witness: true}

	fresh, err := ExactWith(ctx, in, cfg)
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	sc1 := NewSolveCache(cache.Options{Dir: dir})
	if res, err := SolveCached(ctx, in, cfg, sc1); err != nil || res.Status != StatusComplete {
		t.Fatalf("priming solve: %v", err)
	}

	sc2 := NewSolveCache(cache.Options{Dir: dir})
	hit, err := SolveCached(ctx, in, cfg, sc2)
	if err != nil {
		t.Fatalf("disk-backed solve: %v", err)
	}
	if !reflect.DeepEqual(hit, fresh) {
		t.Errorf("disk hit differs from fresh solve:\n hit:   %+v\n fresh: %+v", hit, fresh)
	}
	st := sc2.Stats()
	if st.DiskHits != 1 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v; want 1 disk hit, 0 disk errors", st)
	}
}

// TestSolveCachedAsyncPolicy: async runs never populate the cache (their
// statistics are timing-dependent) but may read deterministic hits.
func TestSolveCachedAsyncPolicy(t *testing.T) {
	ctx := context.Background()
	in := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	det := DefaultConfig(budget)
	async := det
	async.Mode = ModeAsync

	sc := NewSolveCache(cache.Options{})
	if res, err := SolveCached(ctx, in, async, sc); err != nil || res.Status != StatusComplete {
		t.Fatalf("async solve: %v", err)
	}
	if st := sc.Stats(); st.Entries != 0 {
		t.Fatalf("async run populated the cache: %+v", st)
	}

	fresh, err := SolveCached(ctx, in, det, sc)
	if err != nil {
		t.Fatalf("deterministic solve: %v", err)
	}
	got, err := SolveCached(ctx, in, async, sc)
	if err != nil {
		t.Fatalf("async read: %v", err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("async reader got a different result than the deterministic entry")
	}
	if st := sc.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v; want the async read to count as 1 hit", st)
	}
}

// TestSolveCachedCanceledNotCached: a wall-clock stop is not a function
// of the instance, so canceled results never enter either store.
func TestSolveCachedCanceledNotCached(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := NewSolveCache(cache.Options{})
	res, err := SolveCached(ctx, grid3x3k2(t), partialCfg(1_000_000), sc)
	if err == nil {
		t.Fatalf("solve under a canceled context succeeded: %+v", res)
	}
	if res != nil && res.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if st := sc.Stats(); st.Entries != 0 {
		t.Errorf("canceled result was cached: %+v", st)
	}
}

// TestSolveCachedNilCache: a nil SolveCache degrades to plain ExactWith.
func TestSolveCachedNilCache(t *testing.T) {
	ctx := context.Background()
	in := pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))
	fresh, err := ExactWith(ctx, in, DefaultConfig(budget))
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	got, err := SolveCached(ctx, in, DefaultConfig(budget), nil)
	if err != nil {
		t.Fatalf("nil-cache solve: %v", err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("nil-cache SolveCached differs from ExactWith")
	}
}

// TestSolveBatchCached: duplicate instances inside one batch of solves
// sharing a cache hit instead of re-searching.
func TestSolveBatchCached(t *testing.T) {
	ctx := context.Background()
	a := pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3))
	b := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
	sc := NewSolveCache(cache.Options{})
	var out []*Result
	for i, in := range []*pebble.Instance{a, b, a} {
		res, err := SolveCached(ctx, in, DefaultConfig(budget), sc)
		if err != nil {
			t.Fatalf("batch[%d]: %v", i, err)
		}
		out = append(out, res)
	}
	if !reflect.DeepEqual(out[0], out[2]) {
		t.Errorf("repeat instance solved differently within one batch")
	}
	if st := sc.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v; want 1 hit, 2 misses", st)
	}
}

// TestSolveCachedConcurrent hammers one shared cache from many
// goroutines (run under -race): every call must return the correct
// optimum regardless of who primed the entry.
func TestSolveCachedConcurrent(t *testing.T) {
	ctx := context.Background()
	ins := []*pebble.Instance{
		pebble.MustInstance(gen.Chain(5), pebble.MPP(1, 2, 3)),
		pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2)),
		pebble.MustInstance(gen.Pyramid(3), pebble.MPP(1, 3, 2)),
	}
	want := make([]int64, len(ins))
	for i, in := range ins {
		res, err := ExactWith(ctx, in, DefaultConfig(budget))
		if err != nil {
			t.Fatalf("fresh solve %d: %v", i, err)
		}
		want[i] = res.Cost
	}
	sc := NewSolveCache(cache.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, in := range ins {
					res, err := SolveCached(ctx, in, DefaultConfig(budget), sc)
					if err != nil {
						t.Errorf("concurrent solve %d: %v", i, err)
						return
					}
					if res.Cost != want[i] {
						t.Errorf("concurrent solve %d: cost %d, want %d", i, res.Cost, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
