package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pebble"
)

// The equivalence suite: the CSR-native engines must produce
// byte-identical strategies to the frozen map-backed oracles in
// oracle_test.go, across the DAG zoo, k ∈ {1,2,4,7}, every greedy
// policy combination, recomputation, random restarts, and every
// partitioned assignment × worker count. verify.sh runs this package's
// full suite under -race, which additionally exercises the parallel
// phase-A fan-out.

type equivParams struct{ k, rExtra, g int }

var equivParamSets = []equivParams{
	{1, 1, 2},
	{2, 1, 2},
	{4, 2, 3},
	{7, 3, 1},
}

func equivInstance(t *testing.T, name string, k, rExtra, g int) *pebble.Instance {
	t.Helper()
	gr := zoo()[name]
	in, err := pebble.NewInstance(gr, pebble.MPP(k, gr.MaxInDegree()+1+rExtra, g))
	if err != nil {
		t.Fatalf("instance %s: %v", name, err)
	}
	return in
}

// assertSame compares an engine run against its oracle run: identical
// strategies, or both failing.
func assertSame(t *testing.T, got *pebble.Strategy, gotErr error, want *pebble.Strategy, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error mismatch: engine=%v oracle=%v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		if got.Len() != want.Len() {
			t.Fatalf("move count mismatch: engine=%d oracle=%d", got.Len(), want.Len())
		}
		for i := range got.Len() {
			if !reflect.DeepEqual(got.Move(i), want.Move(i)) {
				t.Fatalf("first divergence at move %d: engine=%+v oracle=%+v", i, got.Move(i), want.Move(i))
			}
		}
		t.Fatalf("strategies differ")
	}
}

func TestGreedyMatchesOracle(t *testing.T) {
	policies := []Greedy{}
	for _, sel := range []SelectRule{SelectCount, SelectFraction} {
		for _, tie := range []TieBreak{TieLowID, TieHighID} {
			for _, ev := range []EvictRule{EvictLRU, EvictFewestUses} {
				policies = append(policies, Greedy{Select: sel, Tie: tie, Evict: ev})
			}
		}
	}
	for name := range zoo() {
		for _, ps := range equivParamSets {
			in := equivInstance(t, name, ps.k, ps.rExtra, ps.g)
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%s/k%d/%s", name, ps.k, pol.Name()), func(t *testing.T) {
					got, gotErr := pol.Schedule(in)
					want, wantErr := oracleGreedySchedule(in, pol)
					assertSame(t, got, gotErr, want, wantErr)
				})
			}
		}
	}
}

func TestRecomputeGreedyMatchesOracle(t *testing.T) {
	for name := range zoo() {
		for _, ps := range equivParamSets {
			in := equivInstance(t, name, ps.k, ps.rExtra, ps.g)
			for _, mc := range []int{1, 3} {
				for _, tie := range []TieBreak{TieLowID, TieHighID} {
					pol := RecomputeGreedy{Greedy: Greedy{Tie: tie}, MaxClosure: mc}
					t.Run(fmt.Sprintf("%s/k%d/mc%d/tie%s", name, ps.k, mc, tie), func(t *testing.T) {
						got, gotErr := pol.Schedule(in)
						want, wantErr := oracleRecomputeSchedule(in, pol)
						assertSame(t, got, gotErr, want, wantErr)
					})
				}
			}
		}
	}
}

func TestRandomRestartGreedyMatchesOracle(t *testing.T) {
	for name := range zoo() {
		for _, ps := range equivParamSets {
			in := equivInstance(t, name, ps.k, ps.rExtra, ps.g)
			for _, seed := range []int64{1, 7} {
				pol := RandomRestartGreedy{Seed: seed, Restarts: 3}
				t.Run(fmt.Sprintf("%s/k%d/seed%d", name, ps.k, seed), func(t *testing.T) {
					got, gotErr := pol.Schedule(in)
					want, wantErr := oracleRandomSchedule(in, pol)
					assertSame(t, got, gotErr, want, wantErr)
				})
			}
		}
	}
}

// TestPartitionedMatchesOracle asserts the two-phase parallel engine is
// byte-identical to the frozen sequential engine for every assignment
// family and every worker count — the merge-determinism half of the
// tentpole. Run under -race (verify.sh does) this also checks the
// phase-A fan-out for data races.
func TestPartitionedMatchesOracle(t *testing.T) {
	assigns := []struct {
		name string
		fn   AssignFunc
	}{
		{"levels", AssignLevelRoundRobin},
		{"blocks", AssignTopoBlocks},
		{"components", AssignComponents},
	}
	for name := range zoo() {
		for _, ps := range equivParamSets {
			in := equivInstance(t, name, ps.k, ps.rExtra, ps.g)
			for _, as := range assigns {
				want, wantErr := oraclePartSchedule(in, as.fn(in.Graph, in.K))
				for _, workers := range []int{0, 1, 2, 4, 7} {
					pol := Partitioned{Assign: as.fn, AssignName: as.name, Workers: workers}
					t.Run(fmt.Sprintf("%s/k%d/%s/w%d", name, ps.k, as.name, workers), func(t *testing.T) {
						got, gotErr := pol.Schedule(in)
						assertSame(t, got, gotErr, want, wantErr)
					})
				}
			}
		}
	}
}
