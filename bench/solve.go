package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/opt"
	"repro/internal/pebble"
)

// solveRow is one exact instance with its known optimum.
type solveRow struct {
	name   string
	graph  func() *dag.Graph
	params pebble.Params
	want   int64
}

var solveRows = []solveRow{
	{"grid3x3", func() *dag.Graph { return gen.Grid2D(3, 3) }, pebble.MPP(2, 3, 2), 11},
	{"pyramid4", func() *dag.Graph { return gen.Pyramid(4) }, pebble.MPP(1, 4, 2), 23},
	{"fft2", func() *dag.Graph { return gen.FFT(2) }, pebble.MPP(2, 3, 2), 12},
}

var tinySolveRows = []solveRow{
	{"grid2x3", func() *dag.Graph { return gen.Grid2D(2, 3) }, pebble.MPP(2, 3, 2), 6},
	{"pyramid2", func() *dag.Graph { return gen.Pyramid(2) }, pebble.MPP(1, 4, 2), 6},
}

var solveModes = []opt.Mode{opt.ModeDeterministic, opt.ModeAsync}

// solveTotals sums one mode's solves in a traced phase.
type solveTotals struct {
	seconds, states, pruned, reexpanded, allocs, bytes float64
	solves                                             int
}

// solveHard runs opt.DefaultConfig(0) — Workers 0, so GOMAXPROCS — in
// both engine modes over every row, pass after pass.
type solveHard struct {
	rows []solveRow
	ins  []*pebble.Instance
	// detStates holds each row's deterministic state count from the
	// first solve; every later solve must match it exactly.
	detStates []int
	totals    [2]solveTotals
	hashN     []int
}

func newSolveHard(o options) workload {
	if o.tiny {
		return &solveHard{rows: tinySolveRows, hashN: []int{1e4}}
	}
	return &solveHard{rows: solveRows, hashN: []int{1e4, 1e6}}
}

// warmStates is the budget of set-up's warm-up solves: enough to grow
// the solver's pooled arenas and start its workers once per mode before
// anything is timed.
const warmStates = 10_000

func (s *solveHard) setup() error {
	s.ins = s.ins[:0]
	for _, r := range s.rows {
		in, err := pebble.NewInstance(r.graph(), r.params)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		s.ins = append(s.ins, in)
		for _, mode := range solveModes {
			cfg := opt.DefaultConfig(warmStates)
			cfg.Mode = mode
			// A budget stop is the expected outcome; the timed solves
			// check everything.
			_, _ = opt.ExactWith(context.Background(), in, cfg)
		}
	}
	if s.detStates == nil {
		s.detStates = make([]int, len(s.rows))
	}
	return nil
}

func (s *solveHard) close() {}

// solve runs one exact search and checks it against the row.
func (s *solveHard) solve(p *phase, i int, mode opt.Mode, workers int, tr *tracer, req string) (*opt.Result, time.Duration) {
	cfg := opt.DefaultConfig(0)
	cfg.Mode = mode
	cfg.Workers = workers
	p.attempted++
	t := time.Now()
	res, err := opt.ExactWith(context.Background(), s.ins[i], cfg)
	d := time.Since(t)
	tr.add("opt.ExactWith", req, t, t.Add(d))
	row := s.rows[i]
	switch {
	case err != nil:
		p.fail("%s: %v", req, err)
		return nil, d
	case res.Status != opt.StatusComplete:
		p.fail("%s: status %v", req, res.Status)
		return nil, d
	case res.Cost != row.want:
		p.fail("%s: optimum %d, want %d", req, res.Cost, row.want)
		return nil, d
	}
	if mode == opt.ModeDeterministic {
		if s.detStates[i] == 0 {
			s.detStates[i] = res.States
		} else if res.States != s.detStates[i] {
			p.fail("%s: %d states, earlier solves expanded %d", req, res.States, s.detStates[i])
		}
	}
	return res, d
}

func (s *solveHard) measure(d time.Duration, tr *tracer) *phase {
	p := newPhase()
	s.totals = [2]solveTotals{}
	times := make([][2][]float64, len(s.rows))
	var ms runtime.MemStats
	var passMS []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		var passDur time.Duration
		for i, row := range s.rows {
			for m, mode := range solveModes {
				// Start every solve from a collected heap, so peak RSS
				// is the largest solve's, not the GC's timing.
				runtime.GC()
				var allocs, bytes uint64
				if tr != nil {
					runtime.ReadMemStats(&ms)
					allocs, bytes = ms.Mallocs, ms.TotalAlloc
				}
				res, dur := s.solve(p, i, mode, 0, tr, fmt.Sprintf("%s/%v/p%d", row.name, mode, pass))
				times[i][m] = append(times[i][m], dur.Seconds())
				passDur += dur
				if tr != nil && res != nil {
					runtime.ReadMemStats(&ms)
					t := &s.totals[m]
					t.seconds += dur.Seconds()
					t.states += float64(res.States)
					t.pruned += float64(res.Pruned)
					t.reexpanded += float64(res.ReExpanded)
					t.allocs += float64(ms.Mallocs - allocs)
					t.bytes += float64(ms.TotalAlloc - bytes)
					t.solves++
				}
			}
		}
		passMS = append(passMS, float64(passDur)/1e6)
	}
	var det, async float64
	for i := range s.rows {
		det += median(times[i][0])
		async += median(times[i][1])
		p.extra["solve_s."+s.rows[i].name] = map[string]dist{"det": summarize(times[i][0]), "async": summarize(times[i][1])}
	}
	p.passS = det + async
	p.opsMS = passMS
	p.extra["solve_det_s"] = det
	p.extra["solve_async_s"] = async
	return p
}

// check has nothing left to do: every solve was checked as it returned.
func (s *solveHard) check(*phase) {}

func (s *solveHard) layers(p *phase, _ []span, m metrics) {
	det, async := &s.totals[0], &s.totals[1]
	for i, r := range s.rows {
		if name := "opt.states." + r.name; layerMetric(name) {
			m.set(name, float64(s.detStates[i]), "count")
		}
	}
	if det.seconds > 0 && async.seconds > 0 {
		m.set("opt.states_per_s.det", det.states/det.seconds, "1/s")
		m.set("opt.states_per_s.async", async.states/async.seconds, "1/s")
		m.set("opt.pruned_ratio", det.pruned/det.states, "ratio")
		m.set("opt.async_states_ratio", async.states/det.states, "ratio")
		m.set("opt.reexpanded_ratio", async.reexpanded/async.states, "ratio")
		n := float64(det.solves + async.solves)
		m.set("opt.allocs_per_solve", (det.allocs+async.allocs)/n, "count")
		m.set("opt.bytes_per_solve", (det.bytes+async.bytes)/n, "B")
	}

	// One extra pass at Workers=1, untimed, gives the parallel speedup
	// of the GOMAXPROCS-wide runs above and the single-core expansion
	// rate the hashtab ceiling is compared against.
	var w1 [2]float64
	var w1States float64
	for i := range s.rows {
		for m, mode := range solveModes {
			res, d := s.solve(p, i, mode, 1, nil, fmt.Sprintf("%s/%v/w1", s.rows[i].name, mode))
			w1[m] += d.Seconds()
			if res != nil && mode == opt.ModeDeterministic {
				w1States += float64(res.States)
			}
		}
	}
	perPass := func(t *solveTotals) float64 { return t.seconds * float64(len(s.rows)) / float64(max(t.solves, 1)) }
	if det.solves > 0 && async.solves > 0 {
		m.set("opt.speedup.det", w1[0]/perPass(det), "ratio")
		m.set("opt.speedup.async", w1[1]/perPass(async), "ratio")
	}

	var ceiling float64
	for _, n := range s.hashN {
		ins, hit, miss, ok := probeHashtab(n)
		if !ok {
			p.fail("hashtab at %d keys: Find disagrees with Insert", n)
		}
		tag := fmt.Sprintf("1e%d", len(fmt.Sprint(n))-1)
		m.set("hashtab.insert_ns."+tag, ins, "ns")
		m.set("hashtab.find_hit_ns."+tag, hit, "ns")
		m.set("hashtab.find_miss_ns."+tag, miss, "ns")
		ceiling = 1e9 / ins // the largest table sets the ceiling
	}
	m.set("hashtab.ceiling_states_per_s", ceiling, "1/s")
	if w1[0] > 0 {
		m.set("opt.ceiling_frac", w1States/w1[0]/ceiling, "ratio")
	}
}

// probeHashtab measures hashtab.Table at n two-word keys: ns per Insert
// of a new key, per Find of a present key and per Find of an absent
// one, and whether every lookup answered as it should. Small tables
// repeat until ~20 ms have been measured; the result is the median over
// repeats.
func probeHashtab(n int) (insertNS, hitNS, missNS float64, ok bool) {
	const words = 2
	keys := make([]uint64, 2*n*words)
	x := uint64(n)
	for i := range keys {
		x = splitmix(x)
		keys[i] = x
	}
	present, absent := keys[:n*words], keys[n*words:]
	var ins, hit, miss []float64
	var spent time.Duration
	for rep := 0; rep < 3 || (spent < 20*time.Millisecond && rep < 1000); rep++ {
		t := hashtab.New(words, n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.Insert(present[i*words : (i+1)*words])
		}
		t1 := time.Now()
		found := 0
		for i := 0; i < n; i++ {
			if _, ok := t.Find(present[i*words : (i+1)*words]); ok {
				found++
			}
		}
		t2 := time.Now()
		for i := 0; i < n; i++ {
			if _, ok := t.Find(absent[i*words : (i+1)*words]); ok {
				found--
			}
		}
		t3 := time.Now()
		if found != n {
			return 0, 0, 0, false
		}
		ins = append(ins, float64(t1.Sub(t0))/float64(n))
		hit = append(hit, float64(t2.Sub(t1))/float64(n))
		miss = append(miss, float64(t3.Sub(t2))/float64(n))
		spent += t3.Sub(t0)
	}
	return median(ins), median(hit), median(miss), true
}

// splitmix is the splitmix64 step: a cheap, well-mixed deterministic
// sequence for generated keys and seeded choices.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
