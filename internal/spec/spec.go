// Package spec parses the command-line DAG and scheduler specifications
// shared by the cmd/ binaries.
package spec

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/sched"
)

// DAGSyntax documents the accepted -dag specifications.
const DAGSyntax = `chain:N | chains:K,LEN | intree:DEPTH | outtree:DEPTH | grid:R,C |
pyramid:H | fft:LOGN | matmul:N | zipper:D,LEN[,TAIL] | fanchain:D,LEN |
cyclic:D,DELTA,LEN,STRIDE | broom:T,STRIDE,PREFIX | trapg:D,M |
random:N,P,MAXIN,SEED | twolayer:S,T,P,SEED | file:PATH`

// ParseDAG builds a DAG from a specification string. Generator panics on
// out-of-range parameters (e.g. a zipper whose tail exceeds its length)
// are converted to errors: a malformed CLI flag must produce a usage
// message, never a crash.
func ParseDAG(s string) (g *dag.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("invalid DAG spec %q: %v", s, r)
		}
	}()
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "chain":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.Chain(v[0]), nil
	case "chains":
		v, err := ints(arg, 2, 2)
		if err != nil {
			return nil, err
		}
		return gen.IndependentChains(v[0], v[1]), nil
	case "intree":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.BinaryInTree(v[0]), nil
	case "outtree":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.BinaryOutTree(v[0]), nil
	case "grid":
		v, err := ints(arg, 2, 2)
		if err != nil {
			return nil, err
		}
		return gen.Grid2D(v[0], v[1]), nil
	case "pyramid":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.Pyramid(v[0]), nil
	case "fft":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.FFT(v[0]), nil
	case "matmul":
		v, err := ints(arg, 1, 1)
		if err != nil {
			return nil, err
		}
		return gen.MatMul(v[0]), nil
	case "zipper":
		v, err := ints(arg, 2, 3)
		if err != nil {
			return nil, err
		}
		tail := 0
		if len(v) > 2 {
			tail = v[2]
		}
		g, _ := gen.Zipper(v[0], v[1], tail)
		return g, nil
	case "fanchain":
		v, err := ints(arg, 2, 2)
		if err != nil {
			return nil, err
		}
		g, _ := gen.FanChain(v[0], v[1], 0)
		return g, nil
	case "cyclic":
		v, err := ints(arg, 4, 4)
		if err != nil {
			return nil, err
		}
		g, _ := gen.CyclicFanChain(v[0], v[1], v[2], v[3])
		return g, nil
	case "broom":
		v, err := ints(arg, 3, 3)
		if err != nil {
			return nil, err
		}
		g, _ := gen.SharedPrefixBroom(v[0], v[1], v[2])
		return g, nil
	case "trapg":
		v, err := ints(arg, 2, 2)
		if err != nil {
			return nil, err
		}
		g, _ := gen.GreedyTrapG(v[0], v[1])
		return g, nil
	case "random":
		parts := strings.Split(arg, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("random wants N,P,MAXIN,SEED")
		}
		n, err1 := strconv.Atoi(parts[0])
		p, err2 := strconv.ParseFloat(parts[1], 64)
		maxIn, err3 := strconv.Atoi(parts[2])
		seed, err4 := strconv.ParseInt(parts[3], 10, 64)
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return nil, fmt.Errorf("bad random spec %q", arg)
			}
		}
		return gen.RandomDAG(n, p, maxIn, seed), nil
	case "twolayer":
		parts := strings.Split(arg, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("twolayer wants SOURCES,SINKS,P,SEED")
		}
		s1, err1 := strconv.Atoi(parts[0])
		s2, err2 := strconv.Atoi(parts[1])
		p, err3 := strconv.ParseFloat(parts[2], 64)
		seed, err4 := strconv.ParseInt(parts[3], 10, 64)
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return nil, fmt.Errorf("bad twolayer spec %q", arg)
			}
		}
		return gen.TwoLayerRandom(s1, s2, p, seed), nil
	case "file":
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dag.ReadText(f)
	default:
		return nil, fmt.Errorf("unknown DAG kind %q; syntax:\n%s", kind, DAGSyntax)
	}
}

// ints parses between lo and hi comma-separated integers: a surplus
// value is an error, not dropped.
func ints(spec string, lo, hi int) ([]int, error) {
	parts := strings.Split(spec, ",")
	if len(parts) < lo || len(parts) > hi {
		if lo == hi {
			return nil, fmt.Errorf("expected %d comma-separated values, got %q", lo, spec)
		}
		return nil, fmt.Errorf("expected %d to %d comma-separated values, got %q", lo, hi, spec)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// SchedulerSyntax documents the accepted -sched specifications.
const SchedulerSyntax = `baseline | greedy[:count|fraction,low|high,lru|fewest] |
partitioned:one|components|levels|blocks | random[:SEED[,RESTARTS]] | all`

// ParseSchedulers parses a scheduler specification; "all" returns the
// whole portfolio.
func ParseSchedulers(s string) ([]sched.Scheduler, error) {
	if s == "all" {
		return []sched.Scheduler{
			sched.Baseline{},
			sched.Greedy{},
			sched.Greedy{Select: sched.SelectFraction},
			sched.Greedy{Evict: sched.EvictFewestUses},
			sched.Partitioned{Assign: sched.AssignAllToOne, AssignName: "one"},
			sched.Partitioned{Assign: sched.AssignComponents, AssignName: "components"},
			sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"},
			sched.Partitioned{Assign: sched.AssignTopoBlocks, AssignName: "blocks"},
			sched.RandomRestartGreedy{},
		}, nil
	}
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "baseline":
		return []sched.Scheduler{sched.Baseline{}}, nil
	case "random":
		rg := sched.RandomRestartGreedy{}
		if arg != "" {
			v, err := ints(arg, 1, 2)
			if err != nil {
				return nil, fmt.Errorf("random wants SEED[,RESTARTS]: %w", err)
			}
			rg.Seed = int64(v[0])
			if len(v) > 1 {
				rg.Restarts = v[1]
			}
		}
		return []sched.Scheduler{rg}, nil
	case "greedy":
		gr := sched.Greedy{}
		if arg != "" {
			for _, p := range strings.Split(arg, ",") {
				switch strings.TrimSpace(p) {
				case "count":
					gr.Select = sched.SelectCount
				case "fraction":
					gr.Select = sched.SelectFraction
				case "low":
					gr.Tie = sched.TieLowID
				case "high":
					gr.Tie = sched.TieHighID
				case "lru":
					gr.Evict = sched.EvictLRU
				case "fewest":
					gr.Evict = sched.EvictFewestUses
				default:
					return nil, fmt.Errorf("unknown greedy option %q", p)
				}
			}
		}
		return []sched.Scheduler{gr}, nil
	case "partitioned":
		fns := map[string]sched.AssignFunc{
			"one":        sched.AssignAllToOne,
			"components": sched.AssignComponents,
			"levels":     sched.AssignLevelRoundRobin,
			"blocks":     sched.AssignTopoBlocks,
		}
		fn, ok := fns[arg]
		if !ok {
			return nil, fmt.Errorf("unknown partition %q (one|components|levels|blocks)", arg)
		}
		return []sched.Scheduler{sched.Partitioned{Assign: fn, AssignName: arg}}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q; syntax:\n%s", kind, SchedulerSyntax)
	}
}
