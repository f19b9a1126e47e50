// Package exp is the experiment harness: one experiment per figure and
// per quantitative lemma of the paper, each regenerating the construction,
// running schedulers / proof strategies / exact solvers, and checking that
// the claimed shape (who wins, by what factor, where crossovers fall)
// holds. cmd/mppexp renders the tables recorded in EXPERIMENTS.md; the
// repository benchmark (bench/) times the whole registry as its suite
// workload.
package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks instance sizes so the whole suite runs in seconds
	// (used by tests); full mode is the default for cmd/mppexp.
	Quick bool
	// Timeout bounds one experiment's wall-clock time (0 = unbounded).
	// RunSafe applies it; an expired deadline yields a partial table, not
	// an error.
	Timeout time.Duration
	// MaxStates caps each exact-solver call's explored states, overriding
	// the experiment's built-in budget (0 = keep the built-in budget).
	MaxStates int
	// Async switches every exact-solver call to opt.ModeAsync: same
	// proven optima, faster multicore wall-clock, but States/Pruned and
	// witness traces stop being run-to-run deterministic (see DESIGN.md
	// §6). mppexp -async sets it.
	Async bool
	// Cache, when non-nil, memoizes every exact-solver call behind its
	// instance fingerprint (opt.SolveCached): experiments sharing
	// instances — and repeated suite runs against a file-backed cache —
	// skip re-searching. mppexp -cache sets it.
	Cache *opt.SolveCache
}

// solver applies the config's solver-wide toggles (currently just the
// async engine mode) on top of an experiment's own opt.Config. Every
// exact call in the suite funnels through exactInCfg, which applies it.
func (cfg Config) solver(ocfg opt.Config) opt.Config {
	if cfg.Async {
		ocfg.Mode = opt.ModeAsync
	}
	return ocfg
}

// states resolves a solver call's state budget: the config override when
// set, else the experiment's default for that call.
func (cfg Config) states(def int) int {
	if cfg.MaxStates > 0 {
		return cfg.MaxStates
	}
	return def
}

// Check is one verified claim inside an experiment.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Table is an experiment's rendered result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Columns []string
	Rows    [][]string
	Checks  []Check
	Notes   []string
	// Partial marks that at least one solver call inside the experiment
	// stopped early (budget, deadline, or cancellation), so the recorded
	// rows/checks cover only what was decided in time. A partial table is
	// a degraded result, not a failure: Pass() still reflects the checks
	// that did run.
	Partial bool
}

// MarkPartial records an early-stopped stage: the table is flagged
// Partial and the stop reason is kept as a note.
func (t *Table) MarkPartial(stage string, err error) {
	t.Partial = true
	t.AddNote("partial: %s stopped early: %v", stage, err)
}

// Pass reports whether every check passed.
func (t *Table) Pass() bool {
	for _, c := range t.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddCheck records a shape check.
func (t *Table) AddCheck(name string, pass bool, format string, args ...any) {
	t.Checks = append(t.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// AddNote appends a free-form note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Experiment regenerates one paper artifact. Run must honor ctx: when the
// deadline passes mid-experiment, it returns the table built so far with
// Partial set (via the exactIn/zeroIO helpers) rather than an error.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg Config) (*Table, error)
}

// RunSafe executes one experiment with the config's per-experiment
// deadline applied and panics isolated: a panicking experiment becomes an
// error identifying the experiment, never a crashed process. This is the
// entry point cmd/mppexp and the tests use.
func RunSafe(ctx context.Context, e Experiment, cfg Config) (t *Table, err error) {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("exp: %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(ctx, cfg)
}

// Registry returns all experiments in ID order.
func Registry() []Experiment {
	exps := []Experiment{
		{"E01", "Figure 1 walkthrough", E01Figure1},
		{"E02", "Lemma 1: trivial cost bounds", E02Lemma1},
		{"E03", "Lemma 3: greedy upper bound", E03GreedyUpper},
		{"E04", "Lemma 4: greedy adversarial families", E04GreedyTraps},
		{"E05", "Lemma 5 / Corollary 1: translated I/O lower bounds", E05LowerBounds},
		{"E06", "Lemma 6: tightness of the translated bound", E06Tightness},
		{"E07", "Lemma 7: fair-comparison speedup limit", E07FairSpeedup},
		{"E08", "Lemma 8: fair-comparison cost blowup", E08FairBlowup},
		{"E09", "Lemma 9: non-monotonicity in k", E09NonMonotone},
		{"E10", "Lemma 10: superlinear speedup (zipper)", E10Superlinear},
		{"E11", "Section 5: I/O-count jumps in both directions", E11IOJumps},
		{"E12", "Theorem 2 / Figures 3-4: clique reduction", E12CliqueReduction},
		{"E13", "Theorem 1 / Lemma 11: vertex-cover coupling", E13VertexCover},
		{"E14", "Lemma 2: NP-hard DAG classes", E14HardClasses},
		{"E15", "Section 3.3: MPP(r=∞) ≡ BSP DAG scheduling", E15BSPEquiv},
		{"E16", "Ablation: greedy policy choices", E16EvictionAblation},
		{"E17", "Section 3.3: sync vs async execution", E17AsyncRelaxation},
		{"E18", "Corollary 2: surplus-cost inapproximability", E18SurplusInapprox},
		{"E19", "Lemma 5: the k-to-1 simulation, executed", E19Sequentialize},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render writes the table as aligned text.
func Render(w io.Writer, t *Table) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, c := range t.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// RenderMarkdown writes the table as GitHub-flavored markdown (used to
// regenerate EXPERIMENTS.md).
func RenderMarkdown(w io.Writer, t *Table) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "**Paper claim.** %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, c := range t.Checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(w, "- %s **%s** — %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "- note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// heuristics returns the scheduler portfolio used when "best found
// strategy" stands in for OPT at sizes the exact solver cannot reach.
func heuristics() []sched.Scheduler {
	return []sched.Scheduler{
		sched.Greedy{Select: sched.SelectCount, Tie: sched.TieLowID, Evict: sched.EvictLRU},
		sched.Greedy{Select: sched.SelectCount, Tie: sched.TieHighID, Evict: sched.EvictFewestUses},
		sched.Greedy{Select: sched.SelectFraction, Tie: sched.TieLowID, Evict: sched.EvictLRU},
		sched.Partitioned{Assign: sched.AssignAllToOne, AssignName: "one"},
		sched.Partitioned{Assign: sched.AssignComponents, AssignName: "components"},
		sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"},
		sched.Partitioned{Assign: sched.AssignTopoBlocks, AssignName: "blocks"},
	}
}

// bestOf runs the heuristic portfolio concurrently on a pool of at most
// GOMAXPROCS goroutines (the schedulers share nothing but the read-only
// instance), considers any extra pre-built strategies, post-optimizes
// the winner with sched.Improve, and returns the name and report of the
// cheapest valid result. The pool is bounded so that experiment-level
// concurrency (mppexp -j) multiplied by the portfolio does not
// oversubscribe the machine the sharded exact solver also runs on.
//
// Per-scheduler failures and panics are never silent: each is recovered
// in its own goroutine and recorded as a note on t (when non-nil), so a
// crashing heuristic degrades the portfolio visibly instead of vanishing
// from it. ctx is forwarded to context-aware schedulers, whose anytime
// best-so-far result still competes after a deadline.
func bestOf(ctx context.Context, t *Table, in *pebble.Instance, extra map[string]*pebble.Strategy) (string, *pebble.Report, error) {
	type outcome struct {
		name    string
		strat   *pebble.Strategy
		rep     *pebble.Report
		failure string // non-empty when the scheduler errored or panicked
	}
	hs := heuristics()
	results := make(chan outcome, len(hs))
	jobs := make(chan sched.Scheduler, len(hs))
	for _, s := range hs {
		jobs <- s
	}
	close(jobs)
	pool := runtime.GOMAXPROCS(0)
	if pool > len(hs) {
		pool = len(hs)
	}
	runOne := func(s sched.Scheduler) {
		defer func() {
			if r := recover(); r != nil {
				results <- outcome{name: s.Name(), failure: fmt.Sprintf("panic: %v", r)}
			}
		}()
		strat, err := sched.ScheduleCtx(ctx, s, in)
		if err != nil {
			results <- outcome{name: s.Name(), failure: err.Error()}
			return
		}
		rep, err := pebble.Replay(in, strat)
		if err != nil {
			results <- outcome{name: s.Name(), failure: fmt.Sprintf("invalid strategy: %v", err)}
			return
		}
		results <- outcome{name: s.Name(), strat: strat, rep: rep}
	}
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				runOne(s)
			}
		}()
	}
	wg.Wait()
	close(results)

	// Deterministic winner among ties: sort by (cost, name).
	var all []outcome
	var failures []string
	for o := range results {
		if o.failure != "" {
			failures = append(failures, o.name+": "+o.failure)
			continue
		}
		all = append(all, o)
	}
	sort.Strings(failures)
	if t != nil {
		for _, f := range failures {
			t.AddNote("portfolio: %s", f)
		}
	}
	for name, s := range extra {
		rep, err := pebble.Replay(in, s)
		if err != nil {
			return "", nil, fmt.Errorf("exp: crafted strategy %q invalid: %w", name, err)
		}
		all = append(all, outcome{name: name, strat: s, rep: rep})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rep.Cost != all[j].rep.Cost {
			return all[i].rep.Cost < all[j].rep.Cost
		}
		return all[i].name < all[j].name
	})
	bestName := ""
	var best *pebble.Report
	var bestStrat *pebble.Strategy
	if len(all) > 0 {
		bestName, best, bestStrat = all[0].name, all[0].rep, all[0].strat
	}
	if best == nil {
		return "", nil, fmt.Errorf("exp: no scheduler produced a valid strategy for %s (failures: %s)",
			in, strings.Join(failures, "; "))
	}
	if _, improved, err := sched.Improve(in, bestStrat); err == nil && improved.Cost < best.Cost {
		bestName, best = bestName+"+improve", improved
	}
	return bestName, best, nil
}

// ctxDone polls ctx at a loop boundary. When the deadline has passed it
// marks the table partial (the experiment contract: return what was
// built, not an error) and tells the caller to stop iterating.
func ctxDone(ctx context.Context, t *Table, stage string) bool {
	if err := ctx.Err(); err != nil {
		t.MarkPartial(stage, err)
		return true
	}
	return false
}

// exactIn runs the default exact search under the config's budget
// override. A partial stop (budget/deadline/cancel) marks the table and
// returns ok=false with the anytime result — callers skip the row or
// report the incumbent; any other error propagates.
func exactIn(ctx context.Context, cfg Config, t *Table, in *pebble.Instance, defStates int) (*opt.Result, bool, error) {
	return exactInCfg(ctx, cfg, t, in, opt.DefaultConfig(cfg.states(defStates)))
}

// exactInCfg is exactIn under an explicit solver Config — experiments
// that must pin a heuristic mode (e.g. E14's raw-state-space measurement
// runs the bare compute floor) pass their own; cfg.solver layers the
// suite-wide toggles (async mode) on top. Partial results get their
// lower bound raised to the max-heuristic root bound first, so gap
// brackets printed from weaker-mode or early-stopped runs don't start
// from a needlessly loose floor.
func exactInCfg(ctx context.Context, cfg Config, t *Table, in *pebble.Instance, ocfg opt.Config) (*opt.Result, bool, error) {
	res, err := opt.SolveCached(ctx, in, cfg.solver(ocfg), cfg.Cache)
	if err != nil {
		if opt.IsPartial(err) {
			raiseLowerBound(res, in)
			t.MarkPartial("Exact("+in.String()+")", err)
			return res, false, nil
		}
		return nil, false, err
	}
	return res, true, nil
}

// raiseLowerBound lifts a partial result's frontier lower bound to the
// max-heuristic evaluated at the root, clamped to the incumbent. For a
// search that already ran the max heuristic this is a no-op (consistency
// keeps the frontier minimum at or above the root value); for floor-mode
// runs and very early stops it tightens the printed bracket for free.
func raiseLowerBound(res *opt.Result, in *pebble.Instance) {
	if res == nil {
		return
	}
	lb := opt.RootLowerBound(in, opt.HeuristicMax)
	if res.Incumbent >= 0 && lb > res.Incumbent {
		lb = res.Incumbent
	}
	if lb > res.LowerBound {
		res.LowerBound = lb
	}
}

// zeroIOIn is exactIn for the zero-I/O decision procedure: pass it the
// (result, error) pair of an opt.ZeroIO/ZeroIOBig call. An early
// stop marks the table partial and yields ok=false with the indeterminate
// result; other errors propagate.
func zeroIOIn(t *Table, stage string, res *opt.ZeroIOResult, err error) (*opt.ZeroIOResult, bool, error) {
	if err != nil {
		if opt.IsPartial(err) {
			t.MarkPartial(stage, err)
			return res, false, nil
		}
		return nil, false, err
	}
	return res, true, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }
func di(v int) string     { return fmt.Sprintf("%d", v) }
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderCSV writes the table's rows as CSV (RFC 4180), one file-worth per
// table, preceded by a header row. Claims, checks and notes are omitted —
// CSV output is meant for plotting pipelines.
func RenderCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
