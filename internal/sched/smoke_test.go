package sched

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
)

// TestSchedSmoke is the million-node scale gate: with SCHED_SMOKE=1 it
// schedules 10⁵- and 10⁶-node DAGs with both heuristic engines, validates
// every strategy by full replay, and checks the measured cost against the
// certified lower bound. It is skipped by default because the 10⁶-node
// instances take a few seconds each and verify.sh runs it as a dedicated
// step rather than inside the -race sweep.
//
// On the 10⁵-node cases it is also the allocation audit: the engines are
// O(n)-allocation by design, and allocs/op on a fixed instance is
// deterministic, so a count above 1.3× the pinned value means a map or a
// per-round allocation crept back into a hot path. The pins were measured
// without -race, which is how verify.sh runs this test.
func TestSchedSmoke(t *testing.T) {
	if os.Getenv("SCHED_SMOKE") == "" {
		t.Skip("set SCHED_SMOKE=1 to run the large-instance smoke test")
	}
	cases := []struct {
		name  string
		build func() *dag.Graph
		// greedyAllocs and partAllocs pin allocs/op of Greedy and
		// Partitioned(levels); zero skips the audit.
		greedyAllocs, partAllocs float64
	}{
		{"grid-1e5", func() *dag.Graph { return gen.Grid2D(320, 320) }, 433_863, 716_683},
		{"wavefront-1e5", func() *dag.Graph { return gen.Wavefront(500, 200) }, 424_411, 946_361},
		{"wavefront-1e6", func() *dag.Graph { return gen.Wavefront(2000, 500) }, 0, 0},
	}
	const k = 4
	for _, tc := range cases {
		g := tc.build()
		in, err := pebble.NewInstance(g, pebble.MPP(k, g.MaxInDegree()+2, 3))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lower, term := bounds.CertifiedLower(in)
		if lower <= 0 {
			t.Fatalf("%s: certified lower bound %d not positive", tc.name, lower)
		}
		scheds := []struct {
			s      Scheduler
			allocs float64
		}{
			{Greedy{}, tc.greedyAllocs},
			{Partitioned{Assign: AssignLevelRoundRobin, AssignName: "levels"}, tc.partAllocs},
		}
		for _, sc := range scheds {
			s, pin := sc.s, sc.allocs
			t.Run(fmt.Sprintf("%s/%s", tc.name, s.Name()), func(t *testing.T) {
				var strat *pebble.Strategy
				var err error
				var elapsed time.Duration
				schedule := func() {
					start := time.Now()
					strat, err = s.Schedule(in)
					elapsed = time.Since(start)
				}
				if pin == 0 {
					schedule()
				} else if allocs := testing.AllocsPerRun(1, schedule); allocs > 1.3*pin {
					t.Errorf("%.0f allocs/op, more than 1.3× the pinned %.0f", allocs, pin)
				}
				if err != nil {
					t.Fatalf("schedule failed after %v: %v", elapsed, err)
				}
				rep, err := pebble.Replay(in, strat)
				if err != nil {
					t.Fatalf("invalid strategy: %v", err)
				}
				if rep.Cost < lower {
					t.Fatalf("cost %d below certified lower %d (term %s): bound unsound",
						rep.Cost, lower, term)
				}
				n := g.N()
				t.Logf("n=%d m=%d: scheduled in %v (%.0f ns/node), cost=%d lower=%d (%s) gap=%.1f%%",
					n, g.M(), elapsed, float64(elapsed.Nanoseconds())/float64(n),
					rep.Cost, lower, term, 100*bounds.Gap(lower, rep.Cost))
			})
		}
	}
}
