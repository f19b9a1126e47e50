// Command mppbench measures the engine's hot paths — the exact solvers,
// the replay engine, the schedulers — plus the full experiment suite in
// quick mode, and emits a machine-readable BENCH_<date>.json snapshot:
// one point of the repository's performance trajectory. Re-run it after
// perf work and diff the JSON against the committed snapshots.
//
// Usage:
//
//	mppbench                     # write BENCH_<today>.json
//	mppbench -out -              # JSON to stdout
//	mppbench -quick              # shorter sampling windows
//	mppbench -group solver       # only one benchmark group
//	mppbench -diff BENCH_x.json  # fail if states expanded regress >20%
//	mppbench -timeout 2s         # deadline per solver call / experiment
//	mppbench -max-states 100000  # cap the exact solvers' state budgets
//	mppbench -cpuprofile cpu.out # profile the whole run
//
// Under -timeout / -max-states, a solver benchmark whose search cannot
// finish inside the budget is skipped with the anytime bound gap it
// reached (OPT ∈ [lower, incumbent]) instead of aborting the run, and
// experiments report partial tables.
//
// Per benchmark the snapshot records ns/op, bytes/op, allocs/op and —
// for the exact solvers — states/sec (the solver-independent throughput
// number: how much of the exponential search space a second buys) plus
// states_expanded, the deterministic per-run expansion count the
// heuristic/pruning work is judged by. The exact-search benchmarks run
// once per heuristic mode (-floor / -io / -max suffixes; the unsuffixed
// name is the DefaultConfig run kept comparable with v1 snapshots).
//
// The headline exact benchmarks additionally sweep the sharded solver's
// worker count (-w1/-w2/-w4 suffixes, configurable via -workers) in each
// engine mode selected by -modes (default "deterministic,async"; async
// rows carry an -async name suffix and a "mode" field): each row records
// its workers value and the wall-clock speedup relative to the same
// mode's -w1 row. Deterministic-mode states expanded are byte-identical
// across the sweep — that engine's determinism contract, checked here —
// while async-mode counts are timing-dependent averages. A sweep wider
// than one worker count on a machine with one CPU (or GOMAXPROCS=1)
// cannot measure parallel speedup, only scheduling overhead: the run
// prints a loud warning and stamps the snapshot's "sweep_warning" field
// so the JSON can never be mistaken for a multicore result.
//
// The batch-zoo3-w1 benchmark solves three instances of mixed k back to
// back, measuring the pooled-arena path end to end.
//
// The cache group (disable with -cache=false) measures the
// content-addressable solve cache's hit path: each cached-* row primes
// an opt.SolveCache with one fresh solve of the matching solver-group
// instance, then measures repeat solves — pure fingerprint-and-lookup,
// microseconds against the fresh search's milliseconds. The row's
// speedup field records fresh-solve ns over cached-solve ns. -diff
// gates these rows on ns/op (10× tolerance: hit latency is noisy, but a
// broken cache is a 100–1000× jump), not states expanded, which is
// zero by definition on a hit.
//
// The sched group schedules two ~10⁵-node instances (a 316×316 grid and
// a 500×200 wavefront, k=4) with the greedy and partitioned engines,
// recording ns/node, allocs/op and the certified optimality gap of the
// produced strategy against bounds.CertifiedLower. Row names are
// identical in quick and full mode so snapshots diff cleanly; -diff
// gates these rows on allocs/op (1.3×), the allocation audit that keeps
// per-node maps and per-round allocations out of the engine hot paths.
//
// -diff compares the freshly measured solver records against a committed
// snapshot (v1 snapshots are read compatibly: their per-op expansion
// count is recovered from states_per_sec × ns_per_op) and exits non-zero
// on regressed states expanded — >20% for deterministic rows, >50% for
// async rows (mode read from the record, or inferred from an -async name
// for hand-edited baselines), whose counts are expected to wander — the
// CI guard scripts/verify.sh runs in quick mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/prof"
	"repro/internal/sched"
)

type record struct {
	Name         string  `json:"name"`
	Group        string  `json:"group"` // "solver" | "cache" | "engine" | "sched" | "experiment"
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// StatesExpanded is the deterministic per-run expansion count of a
	// solver benchmark (schema v2; recovered from states_per_sec for v1).
	// Identical across the workers sweep — the parallel engine's
	// determinism contract, which is why -diff can compare -wN rows
	// against any baseline that has them.
	StatesExpanded int `json:"states_expanded,omitempty"`
	// Workers is the exact solver's shard-worker count for -wN sweep
	// rows (0 for rows that don't vary it).
	Workers int `json:"workers,omitempty"`
	// Mode is the engine mode for sweep rows that vary it: "async" on
	// the asynchronous-engine rows, empty for deterministic rows (so v2
	// baselines written before the field existed diff cleanly).
	Mode string `json:"mode,omitempty"`
	// Speedup is wall-clock ns/op of the workers=1 row of the same
	// benchmark divided by this row's — recorded on sweep rows when the
	// same run measured the workers=1 baseline.
	Speedup float64 `json:"speedup,omitempty"`
	// NsPerNode is NsPerOp divided by the instance's node count —
	// recorded on sched-group rows, whose acceptance bar is per-node
	// scheduling throughput, not absolute wall time.
	NsPerNode float64 `json:"ns_per_node,omitempty"`
	// Gap is the certified optimality gap (cost − lower)/lower of the
	// strategy the benchmarked scheduler produces, against
	// bounds.CertifiedLower — recorded on sched-group rows.
	Gap float64 `json:"gap,omitempty"`
}

type snapshot struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Quick      bool   `json:"quick"`
	// SweepWarning is stamped when a multi-width workers sweep ran on a
	// single-CPU (or GOMAXPROCS=1) machine: the -wN rows then measure
	// sharding overhead, not parallel speedup, and must not be read as a
	// multicore scaling result.
	SweepWarning string   `json:"sweep_warning,omitempty"`
	Benchmarks   []record `json:"benchmarks"`
}

// measure runs fn repeatedly for at least minTime (at least once) and
// reports per-iteration wall time and allocation statistics from the
// runtime's allocation counters. fn returns the number of solver states
// it expanded (0 when states/sec is meaningless for the workload).
func measure(name, group string, minTime time.Duration, fn func() (states int, err error)) (record, error) {
	if _, err := fn(); err != nil { // warm-up, and fail fast
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	iters, states := 0, 0
	start := time.Now()
	var elapsed time.Duration
	for {
		st, err := fn()
		if err != nil {
			return record{}, fmt.Errorf("%s: %w", name, err)
		}
		states += st
		iters++
		elapsed = time.Since(start)
		if elapsed >= minTime {
			break
		}
	}
	runtime.ReadMemStats(&after)
	rec := record{
		Name:        name,
		Group:       group,
		Iterations:  iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
	}
	if states > 0 && elapsed > 0 {
		rec.StatesPerSec = float64(states) / elapsed.Seconds()
		// The searches are deterministic, so the per-iteration count is
		// exact, not an average.
		rec.StatesExpanded = states / iters
	}
	return rec, nil
}

func main() {
	out := flag.String("out", "", `output file ("-" = stdout; default BENCH_<date>.json)`)
	quick := flag.Bool("quick", false, "shorter sampling windows (noisier, much faster)")
	groupSel := flag.String("group", "", `run only one benchmark group: "solver", "cache", "engine", "sched" or "experiment" (default all)`)
	diff := flag.String("diff", "", "committed snapshot to compare against; exit 1 if any shared solver benchmark expands >20% more states (cache rows: >10x ns/op; sched rows: >1.3x allocs/op)")
	workersFlag := flag.String("workers", "1,2,4", `comma-separated worker counts for the exact-search workers sweep ("" disables the -wN rows)`)
	modesFlag := flag.String("modes", "deterministic,async", `comma-separated engine modes for the workers sweep ("deterministic", "async")`)
	cacheBench := flag.Bool("cache", true, "run the solve-cache hit-latency benchmark rows (the cache group)")
	timeout := flag.Duration("timeout", 0, "deadline per solver call and per experiment (0 = none); searches that hit it are skipped with their bound gap")
	maxStates := flag.Int("max-states", 0, "cap each exact solver call's explored states (0 = benchmark defaults)")
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	minTime := 300 * time.Millisecond
	if *quick {
		minTime = 50 * time.Millisecond
	}
	wantGroup := func(g string) bool { return *groupSel == "" || *groupSel == g }

	snap := snapshot{
		Schema:     "mpp-bench/v2",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	states := func(def int) int {
		if *maxStates > 0 {
			return *maxStates
		}
		return def
	}
	solverCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}
	add := func(rec record, err error) {
		if err != nil {
			if opt.IsPartial(err) {
				// An undersized budget is a property of this run's flags,
				// not a failure of the engine: record the skip and move on.
				fmt.Fprintf(os.Stderr, "skipped: %v\n", err)
				return
			}
			fatal(err)
		}
		snap.Benchmarks = append(snap.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "%-36s %12d ns/op %10d B/op %8d allocs/op",
			rec.Group+"/"+rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
		if rec.StatesPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %12.0f states/s %8d states", rec.StatesPerSec, rec.StatesExpanded)
		}
		if rec.Speedup > 0 {
			fmt.Fprintf(os.Stderr, " %5.2fx", rec.Speedup)
		}
		if rec.NsPerNode > 0 {
			fmt.Fprintf(os.Stderr, " %8.0f ns/node gap=%.1f%%", rec.NsPerNode, 100*rec.Gap)
		}
		fmt.Fprintln(os.Stderr)
	}
	// exactModes benchmarks one instance under each heuristic mode with
	// pruning off (the -floor run reproduces the pre-stack search exactly)
	// plus the unsuffixed DefaultConfig run (max heuristic + dominance +
	// lazy deletion), asserting up front that every configuration lands on
	// the same optimum. The floor-vs-default states ratio is the number the
	// acceptance bar (≥3x fewer expansions) is read from.
	exactModes := func(name string, in *pebble.Instance, budget int) {
		configs := []struct {
			suffix string
			cfg    opt.Config
		}{
			{"", opt.DefaultConfig(0)},
			{"-floor", opt.Config{Heuristic: opt.HeuristicFloor}},
			{"-io", opt.Config{Heuristic: opt.HeuristicIO}},
			{"-max", opt.Config{Heuristic: opt.HeuristicMax}},
		}
		wantCost := int64(-1)
		for _, c := range configs {
			cfg := c.cfg
			cfg.MaxStates = states(budget)
			bname := name + c.suffix
			ctx, cancel := solverCtx()
			res, err := opt.ExactWith(ctx, in, cfg)
			cancel()
			if err == nil {
				if wantCost == -1 {
					wantCost = res.Cost
				} else if res.Cost != wantCost {
					fatal(fmt.Errorf("%s: optimum %d differs across heuristic modes (want %d)", bname, res.Cost, wantCost))
				}
			}
			add(measure(bname, "solver", minTime, func() (int, error) {
				ctx, cancel := solverCtx()
				defer cancel()
				res, err := opt.ExactWith(ctx, in, cfg)
				if err != nil {
					return 0, annotateGap(res, err)
				}
				return res.States, nil
			}))
		}
	}

	// exactWorkers sweeps the sharded solver's worker count on one
	// instance, once per -modes engine mode. Each mode's -w1 row is that
	// mode's speedup baseline. Deterministic-mode States must come out
	// byte-identical at every width (checked here, not just in the
	// tests); async rows are exempt — their expansion counts are
	// timing-dependent by design, which is why they carry a "mode" stamp
	// for -diff's looser gate.
	sweep, err := parseWorkers(*workersFlag)
	if err != nil {
		usageErr(err)
	}
	modes, err := parseModes(*modesFlag)
	if err != nil {
		usageErr(err)
	}
	if len(sweep) > 1 && (snap.NumCPU == 1 || snap.GOMAXPROCS == 1) {
		snap.SweepWarning = fmt.Sprintf(
			"workers sweep ran with num_cpu=%d gomaxprocs=%d: multi-worker rows measure sharding overhead on one core, NOT parallel speedup",
			snap.NumCPU, snap.GOMAXPROCS)
		banner := strings.Repeat("=", 74)
		fmt.Fprintf(os.Stderr, "%s\nmppbench: WARNING: %s\n%s\n", banner, snap.SweepWarning, banner)
	}
	exactWorkers := func(name string, in *pebble.Instance, budget int) {
		for _, mode := range modes {
			mode := mode
			suffix := ""
			if mode != opt.ModeDeterministic {
				suffix = "-" + mode.String()
			}
			var baseNs, wantStates int64 = 0, -1
			for _, wk := range sweep {
				wk := wk
				cfg := opt.DefaultConfig(states(budget))
				cfg.Workers = wk
				cfg.Mode = mode
				bname := fmt.Sprintf("%s%s-w%d", name, suffix, wk)
				rec, err := measure(bname, "solver", minTime, func() (int, error) {
					ctx, cancel := solverCtx()
					defer cancel()
					res, err := opt.ExactWith(ctx, in, cfg)
					if err != nil {
						return 0, annotateGap(res, err)
					}
					return res.States, nil
				})
				if err == nil {
					if mode == opt.ModeDeterministic {
						if wantStates == -1 {
							wantStates = int64(rec.StatesExpanded)
						} else if int64(rec.StatesExpanded) != wantStates {
							fatal(fmt.Errorf("%s: %d states expanded, want %d — workers sweep broke determinism", bname, rec.StatesExpanded, wantStates))
						}
					} else {
						rec.Mode = mode.String()
					}
					rec.Workers = wk
					if wk == 1 {
						baseNs = rec.NsPerOp
					}
					if baseNs > 0 && rec.NsPerOp > 0 {
						rec.Speedup = math.Round(100*float64(baseNs)/float64(rec.NsPerOp)) / 100
					}
				}
				add(rec, err)
			}
		}
	}

	// --- solver group: the exact-search hot paths ---------------------
	if wantGroup("solver") {
		// The unsuffixed single-instance rows run DefaultConfig pinned to
		// one worker, so their numbers do not depend on the machine.
		seqCfg := opt.DefaultConfig(states(10_000_000))
		seqCfg.Workers = 1
		gridK1 := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(1, 4, 2))
		add(measure("exact-grid3x3-k1", "solver", minTime, func() (int, error) {
			ctx, cancel := solverCtx()
			defer cancel()
			res, err := opt.ExactWith(ctx, gridK1, seqCfg)
			if err != nil {
				return 0, annotateGap(res, err)
			}
			return res.States, nil
		}))
		gridK2 := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
		exactModes("exact-grid2x3-k2", gridK2, 10_000_000)
		exactWorkers("exact-grid2x3-k2", gridK2, 10_000_000)
		// A g ≥ 4 gadget where I/O dominates: the zipper forces the single
		// processor to juggle both source groups, so the I/O-aware modes
		// prune far ahead of the compute floor.
		zipg, _ := gen.Zipper(2, 3, 0)
		zipIn := pebble.MustInstance(zipg, pebble.MPP(1, 4, 5))
		exactModes("exact-zipper2x3-k1-g5", zipIn, 10_000_000)
		exactWorkers("exact-zipper2x3-k1-g5", zipIn, 10_000_000)
		// The pooled batch path: three instances of mixed k (the packed
		// key width changes between them, the arena-reuse guard's hard
		// case) solved back to back. Deterministic at one worker, so the
		// summed expansion count is -diff-gated like any solver row.
		batchIns := []*pebble.Instance{gridK2, zipIn, gridK1}
		add(measure("batch-zoo3-w1", "solver", minTime, func() (int, error) {
			ctx, cancel := solverCtx()
			defer cancel()
			total := 0
			for _, in := range batchIns {
				res, err := opt.ExactWith(ctx, in, seqCfg)
				if err != nil {
					return 0, annotateGap(res, err)
				}
				total += res.States
			}
			return total, nil
		}))
		witnessCfg := seqCfg
		witnessCfg.Witness = true
		add(measure("exact-witness-grid2x3-k2", "solver", minTime, func() (int, error) {
			ctx, cancel := solverCtx()
			defer cancel()
			res, err := opt.ExactWith(ctx, gridK2, witnessCfg)
			if err != nil {
				return 0, annotateGap(res, err)
			}
			return res.States, nil
		}))
		pyr := gen.Pyramid(6)
		add(measure("zeroio-pyramid6-r8", "solver", minTime, func() (int, error) {
			ctx, cancel := solverCtx()
			defer cancel()
			res, err := opt.ZeroIO(ctx, pyr, 8, states(10_000_000))
			if err != nil {
				return 0, err
			}
			return res.States, nil
		}))
		// The Theorem 2 reduction on C4 (no 3-clique): the search must
		// exhaust, which is the expensive direction E12/E13 depend on.
		c4 := hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
		red, err := hardness.BuildCliqueReduction(c4, 3)
		if err != nil {
			fatal(err)
		}
		add(measure("zeroiobig-clique-C4-q3", "solver", minTime, func() (int, error) {
			ctx, cancel := solverCtx()
			defer cancel()
			res, err := opt.ZeroIOBig(ctx, red.Graph, red.R, states(10_000_000))
			if err != nil {
				return 0, err
			}
			if res.Feasible {
				return 0, fmt.Errorf("C4 reduction unexpectedly feasible")
			}
			return res.States, nil
		}))
	}

	// --- cache group: the content-addressable solve cache's hit path --
	// Each row primes a fresh opt.SolveCache with one solve, then
	// measures repeat solves of the same instance: a pure
	// fingerprint-hash + LRU-lookup + clone, no search. The speedup
	// field records the primed (fresh, uncached) solve's wall time over
	// the hit latency — the repeat-solve amortization the cache buys.
	if wantGroup("cache") && *cacheBench {
		cachedHit := func(name string, in *pebble.Instance, budget int) {
			sc := opt.NewSolveCache(cache.Options{})
			cfg := opt.DefaultConfig(states(budget))
			cfg.Workers = 1
			solveOnce := func() (*opt.Result, error) {
				ctx, cancel := solverCtx()
				defer cancel()
				return opt.SolveCached(ctx, in, cfg, sc)
			}
			primeStart := time.Now()
			primed, err := solveOnce()
			freshNs := time.Since(primeStart).Nanoseconds()
			if err != nil {
				add(record{}, annotateGap(primed, err))
				return
			}
			rec, err := measure(name, "cache", minTime, func() (int, error) {
				res, err := solveOnce()
				if err != nil {
					return 0, err
				}
				if res.Cost != primed.Cost {
					return 0, fmt.Errorf("%s: cache hit cost %d != fresh cost %d", name, res.Cost, primed.Cost)
				}
				return 0, nil
			})
			if err == nil && rec.NsPerOp > 0 {
				rec.Speedup = math.Round(100*float64(freshNs)/float64(rec.NsPerOp)) / 100
			}
			add(rec, err)
		}
		gridK2 := pebble.MustInstance(gen.Grid2D(2, 3), pebble.MPP(2, 3, 2))
		cachedHit("cached-exact-grid2x3-k2", gridK2, 10_000_000)
		zipg, _ := gen.Zipper(2, 3, 0)
		zipIn := pebble.MustInstance(zipg, pebble.MPP(1, 4, 5))
		cachedHit("cached-exact-zipper2x3-k1-g5", zipIn, 10_000_000)
	}

	// --- engine group: replay and scheduling --------------------------
	if wantGroup("engine") {
		zg, ids := gen.Zipper(8, 200, 0)
		zin := pebble.MustInstance(zg, pebble.MPP(1, 2*8+2, 4))
		bld := pebble.NewBuilder(zin)
		for _, u := range append(append([]dag.NodeID{}, ids.S1...), ids.S2...) {
			bld.Compute(0, u)
		}
		for i, v := range ids.Chain {
			bld.Compute(0, v)
			if i > 0 {
				bld.DropRed(0, ids.Chain[i-1])
			}
		}
		zstrat := bld.Strategy()
		add(measure("replay-zipper8x200", "engine", minTime, func() (int, error) {
			_, err := pebble.Replay(zin, zstrat)
			return 0, err
		}))
		rg := gen.RandomDAG(256, 0.05, 4, 7)
		rin := pebble.MustInstance(rg, pebble.MPP(4, rg.MaxInDegree()+3, 3))
		add(measure("greedy-random-n256-k4", "engine", minTime, func() (int, error) {
			_, err := sched.Run(sched.Greedy{}, rin)
			return 0, err
		}))
	}

	// --- sched group: heuristic schedulers at 10⁵-node scale ----------
	// Each row schedules a ~100k-node instance (identical rows in quick
	// and full mode, only the sampling window differs) and records
	// ns/node plus the certified optimality gap of the strategy it
	// emits. The allocs/op number is the allocation audit: the engines
	// are O(n)-allocation by design, and -diff gates sched rows on it.
	if wantGroup("sched") {
		schedRow := func(name string, g *dag.Graph, s sched.Scheduler) {
			in := pebble.MustInstance(g, pebble.MPP(4, g.MaxInDegree()+2, 3))
			lower, _ := bounds.CertifiedLower(in)
			strat, err := s.Schedule(in)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			rep, err := pebble.Replay(in, strat)
			if err != nil {
				fatal(fmt.Errorf("%s: invalid strategy: %w", name, err))
			}
			rec, err := measure(name, "sched", minTime, func() (int, error) {
				_, err := s.Schedule(in)
				return 0, err
			})
			if err == nil {
				rec.NsPerNode = math.Round(100*float64(rec.NsPerOp)/float64(g.N())) / 100
				rec.Gap = math.Round(1e4*bounds.Gap(lower, rep.Cost)) / 1e4
			}
			add(rec, err)
		}
		levels := sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"}
		grid := gen.Grid2D(316, 316)    // 99 856 nodes
		wave := gen.Wavefront(500, 200) // 100 000 nodes
		schedRow("sched-greedy-grid100k-k4", grid, sched.Greedy{})
		schedRow("sched-part-grid100k-k4", grid, levels)
		schedRow("sched-greedy-wave100k-k4", wave, sched.Greedy{})
		schedRow("sched-part-wave100k-k4", wave, levels)
	}

	// --- experiment group: the full suite, quick sizing, one pass -----
	if wantGroup("experiment") {
		for _, e := range exp.Registry() {
			e := e
			add(measure(e.ID+"-quick", "experiment", 0, func() (int, error) {
				cfg := exp.Config{Quick: true, Timeout: *timeout, MaxStates: *maxStates}
				tab, err := exp.RunSafe(context.Background(), e, cfg)
				if err != nil {
					return 0, err
				}
				if tab.Partial {
					fmt.Fprintf(os.Stderr, "note: %s partial under -timeout/-max-states\n", e.ID)
					return 0, nil
				}
				if !tab.Pass() {
					return 0, fmt.Errorf("%s shape checks failed", e.ID)
				}
				return 0, nil
			}))
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mppbench: wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	}

	// Diff after writing: a regression still leaves the fresh snapshot on
	// disk for inspection, but fails the run.
	if *diff != "" {
		if err := diffStates(*diff, snap.Benchmarks); err != nil {
			fatal(err)
		}
	}
}

// diffStates loads a committed snapshot and compares states expanded on
// the solver benchmarks both runs share, gated per engine mode: a
// deterministic row fails above 1.2× the baseline — those counts are
// exact, so the tolerance only absorbs deliberate small trades (e.g. a
// heuristic tweak), not measurement noise — while an async row (mode
// field, or an "-async" name substring for baselines written before the
// field) gets 1.5×, since its counts are timing-dependent averages that
// legitimately wander between runs. v1 snapshots carry no
// states_expanded field; their per-op count is recovered exactly from
// states_per_sec × ns_per_op (both derive from the same states/iters).
func diffStates(path string, fresh []record) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-diff: %w", err)
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-diff %s: %w", path, err)
	}
	if !strings.HasPrefix(base.Schema, "mpp-bench/") {
		return fmt.Errorf("-diff %s: unrecognized schema %q", path, base.Schema)
	}
	// Every shared solver name enters the baseline map, including rows
	// whose recovered count is zero: a zero or missing value must surface
	// as an explicit "n/a" below, never as a silent skip or an Inf/NaN
	// ratio feeding the exit decision.
	baseline := make(map[string]int)
	baselineNs := make(map[string]int64)
	baselineAllocs := make(map[string]int64)
	for _, r := range base.Benchmarks {
		switch r.Group {
		case "solver":
			st := r.StatesExpanded
			if st == 0 && r.StatesPerSec > 0 && r.NsPerOp > 0 {
				st = int(math.Round(r.StatesPerSec * float64(r.NsPerOp) / 1e9))
			}
			baseline[r.Name] = st
		case "cache":
			baselineNs[r.Name] = r.NsPerOp
		case "sched":
			baselineAllocs[r.Name] = r.AllocsPerOp
		}
	}
	regressed := 0
	compared := 0
	// Cache-group rows have no expansion count (a hit expands nothing),
	// so they are gated on wall latency with a deliberately loose 10×
	// tolerance: hit latency wobbles with the machine, but the failure
	// this guards against — the hit path silently degrading into a
	// re-search — is a 100–1000× jump.
	for _, r := range fresh {
		if r.Group == "cache" {
			want, ok := baselineNs[r.Name]
			if !ok {
				continue
			}
			if want <= 0 || r.NsPerOp <= 0 {
				fmt.Fprintf(os.Stderr, "mppbench: n/a %s: ns/op %d now vs %d in %s (ratio undefined, not gated)\n",
					r.Name, r.NsPerOp, want, path)
				continue
			}
			compared++
			if float64(r.NsPerOp) > 10*float64(want) {
				regressed++
				fmt.Fprintf(os.Stderr, "mppbench: REGRESSION %s [cache, gate 10x]: %d ns/op vs %d in %s (%.1fx)\n",
					r.Name, r.NsPerOp, want, path, float64(r.NsPerOp)/float64(want))
			}
			continue
		}
		// Sched-group rows are the allocation audit: wall time on a loaded
		// machine wobbles, but the engines' allocation counts are
		// deterministic for a fixed instance, so allocs/op is gated tightly
		// (1.3×: absorbs a deliberate small trade, catches a map or
		// per-round slice creeping back into a hot path).
		if r.Group == "sched" {
			want, ok := baselineAllocs[r.Name]
			if !ok {
				continue
			}
			if want <= 0 || r.AllocsPerOp <= 0 {
				fmt.Fprintf(os.Stderr, "mppbench: n/a %s: allocs/op %d now vs %d in %s (ratio undefined, not gated)\n",
					r.Name, r.AllocsPerOp, want, path)
				continue
			}
			compared++
			if float64(r.AllocsPerOp) > 1.3*float64(want) {
				regressed++
				fmt.Fprintf(os.Stderr, "mppbench: REGRESSION %s [sched, gate 30%%]: %d allocs/op vs %d in %s (+%.0f%%)\n",
					r.Name, r.AllocsPerOp, want, path, 100*(float64(r.AllocsPerOp)/float64(want)-1))
			}
			continue
		}
		if r.Group != "solver" {
			continue
		}
		want, ok := baseline[r.Name]
		if !ok {
			continue // new benchmark, nothing to compare against
		}
		if want <= 0 || r.StatesExpanded <= 0 {
			fmt.Fprintf(os.Stderr, "mppbench: n/a %s: states expanded %s now vs %s in %s (ratio undefined, not gated)\n",
				r.Name, orMissing(r.StatesExpanded), orMissing(want), path)
			continue
		}
		compared++
		tol, mode := 1.2, "deterministic"
		if recMode(r) == opt.ModeAsync.String() {
			tol, mode = 1.5, opt.ModeAsync.String()
		}
		if float64(r.StatesExpanded) > tol*float64(want) {
			regressed++
			fmt.Fprintf(os.Stderr, "mppbench: REGRESSION %s [%s, gate %.0f%%]: %d states expanded vs %d in %s (+%.0f%%)\n",
				r.Name, mode, 100*(tol-1), r.StatesExpanded, want, path, 100*(float64(r.StatesExpanded)/float64(want)-1))
		}
	}
	fmt.Fprintf(os.Stderr, "mppbench: diff vs %s (%s): %d solver/cache/sched benchmarks compared, %d regressed\n",
		path, base.Schema, compared, regressed)
	if regressed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past their gate vs %s", regressed, path)
	}
	return nil
}

// orMissing renders a states-expanded count for the -diff n/a report:
// zero means the row never recorded one (engine-group style row or a
// run skipped under -timeout), which must read as missing, not "0".
func orMissing(n int) string {
	if n <= 0 {
		return "n/a"
	}
	return strconv.Itoa(n)
}

// recMode resolves a record's engine mode for the per-mode -diff gate:
// the explicit mode field when present, else inferred from the "-async"
// name suffix the sweep stamps (covers baselines written before the
// field existed); everything else is deterministic.
func recMode(r record) string {
	if r.Mode != "" {
		return r.Mode
	}
	if strings.Contains(r.Name, "-"+opt.ModeAsync.String()) {
		return opt.ModeAsync.String()
	}
	return opt.ModeDeterministic.String()
}

// parseModes parses the -modes flag: a comma-separated list of engine
// mode names ("deterministic", "async"), or the empty string to run the
// sweep in deterministic mode only.
func parseModes(s string) ([]opt.Mode, error) {
	if s == "" {
		return []opt.Mode{opt.ModeDeterministic}, nil
	}
	var out []opt.Mode
	for _, part := range strings.Split(s, ",") {
		m, ok := opt.ParseMode(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf(`-modes: unknown engine mode %q (want "deterministic" or "async")`, part)
		}
		out = append(out, m)
	}
	return out, nil
}

// parseWorkers parses the -workers flag: a comma-separated list of
// positive worker counts, or the empty string to disable the sweep.
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-workers: %q is not a positive worker count", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// gitCommit stamps the snapshot with the current HEAD, best-effort: a
// missing git binary or repository just leaves the field empty.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mppbench:", err)
	os.Exit(1)
}

// usageErr reports an invalid flag value (bad -modes/-workers entry)
// and exits with the conventional usage-error status 2, distinct from
// exit 1 (a benchmark or regression-gate failure). The error message
// names the accepted values, so a typo fails loudly instead of being
// mistaken for the deterministic default.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mppbench:", err)
	os.Exit(2)
}

// annotateGap decorates an exact solver's early-stop error with the
// anytime bracket it reached, so a skipped benchmark still reports how
// close the search got (res may be nil on non-partial failures).
func annotateGap(res *opt.Result, err error) error {
	if res == nil || !opt.IsPartial(err) {
		return err
	}
	return fmt.Errorf("%w; %s", err, bounds.FormatGap(res.LowerBound, res.Incumbent))
}
