// Command mppsched generates (or loads) a DAG, runs a scheduler on an MPP
// instance, validates the produced pebbling strategy, and prints the cost
// breakdown.
//
// Usage:
//
//	mppsched -dag fft:4 -k 2 -r 6 -g 3 -sched greedy
//	mppsched -dag zipper:8,40 -k 2 -r 10 -g 4 -sched all
//	mppsched -dag file:my.txt -k 4 -sched partitioned:levels -timeline 20
//	mppsched -dag random:500,0.05,3,1 -sched random -timeout 2s
//
// -timeout bounds each scheduler's wall-clock time. Anytime schedulers
// (random-restart greedy) return their best-so-far strategy at the
// deadline; others report TIMEOUT and the run continues with the next
// scheduler instead of hanging.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/bounds"
	"repro/internal/pebble"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// stopProf flushes any active profiles; installed by main, called on
// every exit path (fatal bypasses defers via os.Exit).
var stopProf = func() {}

func main() {
	dagSpec := flag.String("dag", "fft:4", "DAG specification: "+spec.DAGSyntax)
	k := flag.Int("k", 2, "number of processors")
	r := flag.Int("r", 0, "red pebbles per processor (0 = Δin+2)")
	gCost := flag.Int("g", 3, "I/O cost g")
	schedSpec := flag.String("sched", "greedy", "scheduler: "+spec.SchedulerSyntax)
	timeline := flag.Int("timeline", 0, "print the first N moves of the strategy")
	gantt := flag.Int("gantt", 0, "print a per-processor activity strip of width N")
	improve := flag.Bool("improve", false, "post-optimize each strategy (no-op elision, dead-write elision, parallel repacking)")
	save := flag.String("save", "", "write the (last) strategy as JSON to this file")
	load := flag.String("load", "", "skip scheduling; validate and report the JSON strategy in this file")
	timeout := flag.Duration("timeout", 0, "per-scheduler wall-clock deadline (0 = none); anytime schedulers return their best-so-far strategy")
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop
	defer stopProf()

	g, err := spec.ParseDAG(*dagSpec)
	if err != nil {
		fatal(err)
	}
	rr := *r
	if rr == 0 {
		rr = g.MaxInDegree() + 2
	}
	in, err := pebble.NewInstance(g, pebble.MPP(*k, rr, *gCost))
	if err != nil {
		fatal(err)
	}
	st := g.ComputeStats()
	lower, lowerTerm := bounds.CertifiedLower(in)
	// The blue-start form charges the sources as loads (the convention
	// of the classic I/O bounds); it is a capacity-planning yardstick,
	// not a certified bound on this game's OPT, so it is reported
	// separately and never feeds the gap column.
	blueStart := ""
	if bs := bounds.BlueStartLower(in); bs > lower {
		blueStart = fmt.Sprintf(" | blue-start lower %d", bs)
	}
	fmt.Printf("dag %s: n=%d m=%d Δin=%d depth=%d | k=%d r=%d g=%d | Lemma 1 bounds: [%d, %d] | certified lower %d (%s)%s\n",
		g.Name(), st.N, st.M, st.MaxIn, st.Depth, *k, rr, *gCost,
		bounds.Lemma1Lower(in), bounds.Lemma1Upper(in), lower, lowerTerm, blueStart)
	gapCol := func(cost int64) string {
		return fmt.Sprintf("cost=%d lower=%d gap=%.1f%%", cost, lower, 100*bounds.Gap(lower, cost))
	}

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		strat, err := pebble.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		rep, err := pebble.Replay(in, strat)
		if err != nil {
			fatal(fmt.Errorf("loaded strategy invalid: %w", err))
		}
		fmt.Printf("%-32s %s | %s\n", "loaded:"+*load, gapCol(rep.Cost), trace.Summary(in, rep))
		trace.PerProcessor(os.Stdout, rep)
		return
	}

	schedulers, err := spec.ParseSchedulers(*schedSpec)
	if err != nil {
		fatal(err)
	}
	var lastStrat *pebble.Strategy
	for _, s := range schedulers {
		ctx, cancel := context.WithCancel(context.Background())
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		}
		strat, err := sched.ScheduleCtx(ctx, s, in)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Printf("%-32s TIMEOUT after %v\n", s.Name(), *timeout)
			} else {
				fmt.Printf("%-32s ERROR: %v\n", s.Name(), err)
			}
			continue
		}
		rep, err := pebble.Replay(in, strat)
		if err != nil {
			fmt.Printf("%-32s INVALID: %v\n", s.Name(), err)
			continue
		}
		name := s.Name()
		if *improve {
			better, brep, err := sched.Improve(in, strat)
			if err != nil {
				fatal(err)
			}
			strat, rep = better, brep
			name += "+improve"
		}
		lastStrat = strat
		fmt.Printf("%-32s %s | %s\n", name, gapCol(rep.Cost), trace.Summary(in, rep))
		if len(schedulers) == 1 {
			trace.PerProcessor(os.Stdout, rep)
			if *timeline > 0 {
				trace.Timeline(os.Stdout, strat, *timeline)
			}
			if *gantt > 0 {
				fmt.Print(trace.Gantt(strat, *k, *gantt))
			}
		}
	}
	if *save != "" && lastStrat != nil {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := lastStrat.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("strategy saved to %s (%d moves)\n", *save, lastStrat.Len())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mppsched:", err)
	stopProf()
	os.Exit(1)
}
