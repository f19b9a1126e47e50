package sched

import (
	"fmt"
	"os"
	"runtime"
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
// O(n)-allocation by design, and allocs/op and bytes/op (TotalAlloc) on a
// fixed instance are deterministic, so a count above 1.3× the pinned
// value means a map, a per-round allocation or a wider move layout crept
// back into a hot path. The pins were measured without -race, which is
// how verify.sh runs this test.
func TestSchedSmoke(t *testing.T) {
	if os.Getenv("SCHED_SMOKE") == "" {
		t.Skip("set SCHED_SMOKE=1 to run the large-instance smoke test")
	}
	// pin is one scheduler's allocs/op and bytes/op; zero skips the audit.
	type pin struct{ allocs, bytes float64 }
	cases := []struct {
		name  string
		build func() *dag.Graph
		// greedy and part pin Greedy and Partitioned(levels).
		greedy, part pin
	}{
		{"grid-1e5", func() *dag.Graph { return gen.Grid2D(320, 320) }, pin{173, 37.9e6}, pin{5_177, 83.1e6}},
		{"wavefront-1e5", func() *dag.Graph { return gen.Wavefront(500, 200) }, pin{200, 38.2e6}, pin{2_250, 104.0e6}},
		{"wavefront-1e6", func() *dag.Graph { return gen.Wavefront(2000, 500) }, pin{}, pin{}},
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
			s   Scheduler
			pin pin
		}{
			{Greedy{}, tc.greedy},
			{Partitioned{Assign: AssignLevelRoundRobin, AssignName: "levels"}, tc.part},
		}
		for _, sc := range scheds {
			s, pin := sc.s, sc.pin
			t.Run(fmt.Sprintf("%s/%s", tc.name, s.Name()), func(t *testing.T) {
				var strat *pebble.Strategy
				var err error
				var elapsed time.Duration
				schedule := func() {
					start := time.Now()
					strat, err = s.Schedule(in)
					elapsed = time.Since(start)
				}
				if pin.allocs == 0 {
					schedule()
				} else {
					// AllocsPerRun runs at GOMAXPROCS 1 and ends on the
					// measured call, so bytes holds that call's TotalAlloc.
					var bytes float64
					allocs := testing.AllocsPerRun(1, func() {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						schedule()
						runtime.ReadMemStats(&after)
						bytes = float64(after.TotalAlloc - before.TotalAlloc)
					})
					t.Logf("%.0f allocs/op, %.0f bytes/op", allocs, bytes)
					if allocs > 1.3*pin.allocs {
						t.Errorf("%.0f allocs/op, more than 1.3× the pinned %.0f", allocs, pin.allocs)
					}
					if bytes > 1.3*pin.bytes {
						t.Errorf("%.0f bytes/op, more than 1.3× the pinned %.0f", bytes, pin.bytes)
					}
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
