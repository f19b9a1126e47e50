// Package repro is a from-scratch Go implementation of the multiprocessor
// red-blue pebble game (MPP) of Böhnlein, Papp and Yzelman, "Red-Blue
// Pebbling with Multiple Processors: Time, Communication and Memory
// Trade-offs" (SPAA 2024), together with every substrate the paper's
// results rest on: the single-processor game (SPP) and its one-shot
// variant, DAG generators for all proof gadgets and classic workloads,
// schedulers (the Lemma 3/4 greedy class, an owner-computes partitioned
// scheduler with exact Belady eviction, the Lemma 1 baseline), exact
// optimum solvers for small instances, the analytic bound library, the
// BSP DAG-scheduling equivalence, the Theorem 2 clique reduction, and an
// experiment harness regenerating every figure and quantitative lemma.
//
// This root package is a thin facade re-exporting the types most
// programs need; the implementation lives under internal/ (one package
// per subsystem — see DESIGN.md for the inventory):
//
//	dag      computational DAGs
//	gen      DAG families and proof gadgets
//	pebble   the pebble game itself: instances, moves, replay/validation
//	sched    strategy-producing schedulers
//	opt      exact solvers (configuration-space search, zero-I/O decision)
//	bounds   analytic lower/upper bounds
//	proofs   the explicit strategies the paper's proofs construct
//	bsp      BSP DAG scheduling (the r = ∞ specialization)
//	hardness NP-hardness reduction machinery (Theorem 2, Lemma 11)
//	exp      experiment harness (E01…E19)
//
// Quick start:
//
//	g, _ := gen.Zipper(8, 100, 0)
//	in := pebble.MustInstance(g, pebble.MPP(2, 10, 4))
//	rep, err := sched.Run(sched.Greedy{}, in)
//	fmt.Println(rep.Cost, rep.IOActions)
package repro

import (
	"context"

	"repro/internal/cache"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// Re-exported core types, so small programs can use the facade alone.
type (
	// Graph is a computational DAG (see internal/dag).
	Graph = dag.Graph
	// NodeID identifies a DAG node.
	NodeID = dag.NodeID
	// Params are the MPP game parameters (k, r, g, compute cost, one-shot).
	Params = pebble.Params
	// Instance couples a DAG with game parameters.
	Instance = pebble.Instance
	// Strategy is a sequence of pebbling moves.
	Strategy = pebble.Strategy
	// Report is the validated cost breakdown of a strategy.
	Report = pebble.Report
	// Scheduler produces strategies for instances.
	Scheduler = sched.Scheduler
	// Experiment regenerates one paper artifact.
	Experiment = exp.Experiment
	// OptResult is the exact solver's (possibly partial) answer: the
	// optimum when Status is complete, otherwise an incumbent/lower-bound
	// bracket.
	OptResult = opt.Result
	// ZeroIOResult is the zero-I/O decision solver's answer, with a
	// three-valued Verdict when the search was cut short.
	ZeroIOResult = opt.ZeroIOResult
	// SearchStatus says whether a search completed or which budget
	// stopped it.
	SearchStatus = opt.Status
	// SearchConfig selects the exact solver's heuristic mode, pruning
	// switches, engine mode (Mode: deterministic runs on one shard, async
	// shards across Workers, 0 = GOMAXPROCS, trading determinism for
	// multicore throughput) and budget; the zero value is the max
	// heuristic with pruning off, opt.DefaultConfig the full stack.
	SearchConfig = opt.Config
	// HeuristicMode picks the admissible cost-to-go bound (floor | io |
	// max) the exact search runs under.
	HeuristicMode = opt.HeuristicMode
	// SearchMode selects how the exact engine runs: ModeDeterministic
	// (one shard on one core, byte-identical results whatever Workers
	// says) or ModeAsync (speculative HDA* across Workers shards, same
	// proven optima, timing-dependent statistics — see DESIGN.md §6).
	SearchMode = opt.Mode
	// SolveCache memoizes exact-solver results behind canonical instance
	// fingerprints (DAG structure + Params + the result-affecting config
	// subset); pass one to SolveCached. See
	// internal/cache for the key-derivation and partial-result policy.
	SolveCache = opt.SolveCache
	// CacheOptions sizes a SolveCache (entry/byte bounds) and optionally
	// points it at a directory for the file-backed store.
	CacheOptions = cache.Options
	// CacheStats is a snapshot of a SolveCache's hit/miss/eviction/bytes
	// counters.
	CacheStats = cache.Stats
)

// Engine modes for SearchConfig.Mode.
const (
	ModeDeterministic = opt.ModeDeterministic
	ModeAsync         = opt.ModeAsync
)

// ErrBudget is returned (wrapped) when a solver exhausts its state
// budget; detect with errors.Is(err, ErrBudget) or IsPartial.
var ErrBudget = opt.ErrBudget

// IsPartial reports whether a solver error means "stopped early with a
// usable partial result" (state budget, deadline, or cancellation)
// rather than a hard failure.
func IsPartial(err error) bool { return opt.IsPartial(err) }

// ExactWith computes the optimal pebbling cost by exhaustive search
// under cfg (opt.DefaultConfig is the full heuristic and pruning stack).
// When cfg.MaxStates is exhausted or ctx expires it returns the best
// incumbent found plus a lower bound alongside a partial-status error.
func ExactWith(ctx context.Context, in *Instance, cfg SearchConfig) (*OptResult, error) {
	return opt.ExactWith(ctx, in, cfg)
}

// NewSolveCache returns an exact-solve memoization cache under the
// given options (zero-value CacheOptions: memory-only, default bounds).
func NewSolveCache(opts CacheOptions) *SolveCache { return opt.NewSolveCache(opts) }

// SolveCached is ExactWith through a cache: repeat solves of the same
// instance under the same result-affecting config return the memoized
// result in microseconds instead of re-searching. Only deterministic,
// non-deadline-stopped results are cached; a nil cache degrades to a
// plain ExactWith.
func SolveCached(ctx context.Context, in *Instance, cfg SearchConfig, sc *SolveCache) (*OptResult, error) {
	return opt.SolveCached(ctx, in, cfg, sc)
}

// ZeroIO decides whether g has a zero-I/O pebbling with r red pebbles
// (the Theorem 2 decision problem). maxStates bounds the states explored
// (non-positive means unbounded); runs interrupted by the state budget or
// by ctx report VerdictIndeterminate.
func ZeroIO(ctx context.Context, g *Graph, r, maxStates int) (*ZeroIOResult, error) {
	return opt.ZeroIO(ctx, g, r, maxStates)
}

// ScheduleCtx runs a scheduler under a context; schedulers that support
// cancellation stop (anytime ones return their best-so-far strategy),
// others run to completion.
func ScheduleCtx(ctx context.Context, s Scheduler, in *Instance) (*Strategy, error) {
	return sched.ScheduleCtx(ctx, s, in)
}

// MPP returns the paper's standard parameters: k processors, r red
// pebbles each, I/O cost g, compute cost 1.
func MPP(k, r, g int) Params { return pebble.MPP(k, r, g) }

// SPP returns classic Hong–Kung single-processor parameters (compute
// steps free).
func SPP(r, g int) Params { return pebble.SPP(r, g) }

// NewInstance validates parameters against a DAG.
func NewInstance(g *Graph, p Params) (*Instance, error) { return pebble.NewInstance(g, p) }

// Replay validates a strategy and returns its cost report.
func Replay(in *Instance, s *Strategy) (*Report, error) { return pebble.Replay(in, s) }

// Experiments returns the full experiment registry (E01…E19).
func Experiments() []Experiment { return exp.Registry() }
