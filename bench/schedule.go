package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// schedRowNames are the sched-1m rows: each scheduler on each DAG.
var schedRowNames = []string{"greedy-wavefront", "partitioned-wavefront", "greedy-grid", "partitioned-grid"}

var schedulers = []sched.Scheduler{
	sched.Greedy{},
	sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"},
}

// sched1M is the mppsched path at 10⁶ nodes: Greedy and
// Partitioned{levels} on a 2000×500 wavefront and a 1000×1000 grid at
// MPP(4, Δin+2, 3), every strategy replayed and held against
// CertifiedLower.
type sched1M struct {
	graphs func() []*dag.Graph
	ins    []*pebble.Instance
	buildS []float64 // generator time of every set-up
	costs  []int64   // each row's cost from its first schedule

	// The last phase, for layers.
	lower          []int64
	schedS, lowerS [][]float64
	replayS, moves float64
	allocs, bytes  float64
	nodes, ratio   float64
}

func newSched1M(o options) workload {
	graphs := func() []*dag.Graph { return []*dag.Graph{gen.Wavefront(2000, 500), gen.Grid2D(1000, 1000)} }
	if o.tiny {
		graphs = func() []*dag.Graph { return []*dag.Graph{gen.Wavefront(40, 10), gen.Grid2D(20, 20)} }
	}
	return &sched1M{graphs: graphs, costs: make([]int64, len(schedRowNames))}
}

func (s *sched1M) setup() error {
	t := time.Now()
	gs := s.graphs()
	s.buildS = append(s.buildS, time.Since(t).Seconds())
	s.ins = s.ins[:0]
	for _, g := range gs {
		in, err := pebble.NewInstance(g, pebble.MPP(4, g.MaxInDegree()+2, 3))
		if err != nil {
			return fmt.Errorf("%s: %w", g.Name(), err)
		}
		s.ins = append(s.ins, in)
	}
	return nil
}

func (s *sched1M) close() { s.ins = s.ins[:0] }

func (s *sched1M) measure(d time.Duration, tr *tracer) *phase {
	p := newPhase()
	nRows := len(s.ins) * len(schedulers)
	rowS := make([][]float64, nRows)
	s.schedS = make([][]float64, nRows)
	s.lowerS = make([][]float64, len(s.ins))
	s.lower = make([]int64, len(s.ins))
	s.replayS, s.moves, s.allocs, s.bytes, s.nodes, s.ratio = 0, 0, 0, 0, 0, 0
	var ms runtime.MemStats
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i, in := range s.ins {
			t := time.Now()
			lower, _ := bounds.CertifiedLower(in)
			tl := time.Now()
			tr.add("bounds.CertifiedLower", fmt.Sprintf("%s/p%d", in.Graph.Name(), pass), t, tl)
			s.lower[i] = lower
			s.lowerS[i] = append(s.lowerS[i], tl.Sub(t).Seconds())
			for j, sc := range schedulers {
				row := i*len(schedulers) + j
				req := fmt.Sprintf("%s/p%d", schedRowNames[row], pass)
				p.attempted++
				if tr != nil {
					runtime.ReadMemStats(&ms)
					s.allocs -= float64(ms.Mallocs)
					s.bytes -= float64(ms.TotalAlloc)
				}
				t0 := time.Now()
				st, err := sc.Schedule(in)
				t1 := time.Now()
				if tr != nil {
					runtime.ReadMemStats(&ms)
					s.allocs += float64(ms.Mallocs)
					s.bytes += float64(ms.TotalAlloc)
					s.nodes += float64(in.N())
				}
				if err != nil {
					p.fail("%s: schedule: %v", req, err)
					continue
				}
				rep, err := pebble.Replay(in, st)
				t2 := time.Now()
				tr.add("sched.Schedule", req, t0, t1)
				tr.add("pebble.Replay", req, t1, t2)
				rowS[row] = append(rowS[row], t2.Sub(t0).Seconds())
				s.schedS[row] = append(s.schedS[row], t1.Sub(t0).Seconds())
				p.opsMS = append(p.opsMS, float64(t2.Sub(t0))/1e6)
				switch {
				case err != nil:
					p.fail("%s: replay: %v", req, err)
					continue
				case rep.Cost < lower:
					p.fail("%s: cost %d below the certified lower bound %d", req, rep.Cost, lower)
				case s.costs[row] != 0 && rep.Cost != s.costs[row]:
					p.fail("%s: cost %d, earlier schedules cost %d", req, rep.Cost, s.costs[row])
				}
				s.costs[row] = rep.Cost
				s.replayS += t2.Sub(t1).Seconds()
				s.moves += float64(st.Len())
				// Collect this row's strategy before the next row, so
				// the peak holds one strategy, not whichever the GC kept.
				runtime.GC()
			}
		}
	}
	schedSum, ratio := 0.0, 0.0
	for row := range rowS {
		schedSum += median(rowS[row])
		lower := s.lower[row/len(schedulers)]
		if lower > 0 {
			ratio += float64(s.costs[row]) / float64(lower)
		}
		p.extra["sched_s."+schedRowNames[row]] = summarize(rowS[row])
	}
	s.ratio = ratio / float64(len(rowS))
	p.passS = schedSum
	p.extra["sched_s"] = schedSum
	p.extra["sched_cost_ratio"] = s.ratio
	return p
}

// check has nothing left to do: every schedule was replayed and checked
// as it returned.
func (s *sched1M) check(*phase) {}

func (s *sched1M) layers(_ *phase, _ []span, m metrics) {
	for row := range s.schedS {
		n := float64(s.ins[row/len(schedulers)].N())
		m.set("sched.ns_per_node."+schedRowNames[row], median(s.schedS[row])*1e9/n, "ns")
	}
	if s.nodes > 0 {
		m.set("sched.allocs_per_node", s.allocs/s.nodes, "count")
		m.set("sched.bytes_per_node", s.bytes/s.nodes, "B")
	}
	m.set("sched.cost_ratio", s.ratio, "ratio")
	if s.moves > 0 {
		m.set("pebble.replay_ns_per_move", s.replayS*1e9/s.moves, "ns")
	}
	var lowerMS float64
	for _, xs := range s.lowerS {
		lowerMS += median(xs) * 1e3
	}
	m.set("bounds.certified_lower_ms", lowerMS, "ms")
	m.set("gen.build_s", median(s.buildS), "s")
}
