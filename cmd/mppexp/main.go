// Command mppexp runs the paper-reproduction experiment suite (E01…E19)
// and prints each experiment's table, claims and shape-check verdicts.
//
// Usage:
//
//	mppexp [-quick] [-markdown] [-list] [-timeout d] [-max-states n] [-mode m] [-cache] [ids...]
//
// With no ids, every experiment runs. -markdown emits the format used in
// EXPERIMENTS.md. -timeout and -max-states bound each experiment; runs
// that hit a bound report partial results (with the solver's incumbent
// and bound gap where available) instead of failing. -mode selects the
// exact engine mode by name ("deterministic", one shard, or "async",
// sharded GOMAXPROCS-wide); an unknown -mode value is rejected with exit
// 2 rather than silently falling back to the default. Async runs prove
// identical optima, but states-explored counts become timing-dependent,
// so recorded tables may differ cosmetically between runs. -cache
// memoizes every exact solve behind its instance fingerprint for the run
// (experiments sharing instances skip re-searching; -cache-dir persists
// results across runs) and prints the hit/miss counters at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/opt"
	"repro/internal/prof"
)

// usageErr reports a bad flag combination or value and exits with the
// conventional usage-error status 2 (distinct from exit 1, a failed
// experiment).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mppexp: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	quick := flag.Bool("quick", false, "run reduced-size instances (seconds instead of minutes)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown (EXPERIMENTS.md format)")
	csvOut := flag.Bool("csv", false, "emit bare CSV tables (for plotting pipelines)")
	list := flag.Bool("list", false, "list experiments and exit")
	jobs := flag.Int("j", 1, "run experiments concurrently on up to this many workers (output stays in ID order)")
	timeout := flag.Duration("timeout", 0, "per-experiment wall-clock deadline (0 = none); expired experiments report partial results")
	maxStates := flag.Int("max-states", 0, "cap each exact-solver call's explored states (0 = experiment defaults)")
	modeFlag := flag.String("mode", "", `exact engine mode: "deterministic" or "async" (default deterministic)`)
	useCache := flag.Bool("cache", false, "memoize exact solves behind instance fingerprints for this run; prints hit/miss counters at exit")
	cacheDir := flag.String("cache-dir", "", "file-backed solve-cache directory (implies -cache); results persist across runs")
	flag.Parse()

	// Resolve the engine mode before anything else runs: a typo must
	// fail loudly (exit 2, the accepted values named), never silently
	// run the deterministic default.
	runAsync := false
	if *modeFlag != "" {
		m, ok := opt.ParseMode(*modeFlag)
		if !ok {
			usageErr(`unknown -mode %q (accepted values: "deterministic", "async")`, *modeFlag)
		}
		runAsync = m == opt.ModeAsync
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mppexp:", err)
		os.Exit(2)
	}
	defer stopProf()

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%s  %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if flag.NArg() == 0 {
		selected = exp.Registry()
	} else {
		for _, id := range flag.Args() {
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "mppexp: unknown experiment %q (try -list)\n", id)
				stopProf()
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := exp.Config{Quick: *quick, Timeout: *timeout, MaxStates: *maxStates, Async: runAsync}
	var solveCache *opt.SolveCache
	if *useCache || *cacheDir != "" {
		solveCache = opt.NewSolveCache(cache.Options{Dir: *cacheDir})
		cfg.Cache = solveCache
	}
	workers := *jobs
	if workers < 1 {
		workers = 1
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	type result struct {
		tab     *exp.Table
		err     error
		elapsed time.Duration
	}
	// A fixed pool of `workers` goroutines pulling experiment indices
	// from a channel — never one goroutine per experiment. With the
	// exact solver itself fanning out Config.Workers shard workers per
	// search, an unbounded spawn here would oversubscribe the machine
	// quadratically under -timeout pressure.
	results := make([]result, len(selected))
	queue := make(chan int, len(selected))
	for i := range selected {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				start := time.Now()
				tab, err := exp.RunSafe(context.Background(), selected[i], cfg)
				results[i] = result{tab, err, time.Since(start)}
			}
		}()
	}
	wg.Wait()

	failures, partials := 0, 0
	for i, e := range selected {
		res := results[i]
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "mppexp: %s failed: %v\n", e.ID, res.err)
			failures++
			continue
		}
		if *csvOut {
			if err := exp.RenderCSV(os.Stdout, res.tab); err != nil {
				fmt.Fprintf(os.Stderr, "mppexp: csv: %v\n", err)
				failures++
			}
		} else if *markdown {
			exp.RenderMarkdown(os.Stdout, res.tab)
		} else {
			exp.Render(os.Stdout, res.tab)
			status := "complete"
			if res.tab.Partial {
				status = "PARTIAL (hit -timeout/-max-states; rows/notes above cover what was decided)"
			}
			fmt.Printf("  status: %s (%.1fs)\n\n", status, res.elapsed.Seconds())
		}
		if res.tab.Partial {
			// A bounded run that got cut short is degraded, not failed:
			// checks that did complete still count, the rest are absent.
			partials++
		} else if !res.tab.Pass() {
			failures++
		}
	}
	if solveCache != nil {
		st := solveCache.Stats()
		fmt.Fprintf(os.Stderr,
			"mppexp: cache: %d hits, %d misses, %d partial hits, %d partial misses, %d evictions, %d entries, %d bytes",
			st.Hits, st.Misses, st.PartialHits, st.PartialMisses, st.Evictions, st.Entries, st.Bytes)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, ", %d disk hits, %d disk errors", st.DiskHits, st.DiskErrors)
		}
		fmt.Fprintln(os.Stderr)
		if st.DiskErrors > 0 {
			// The file store is best-effort and degrades failures to
			// misses, which makes an unwritable or corrupt -cache-dir
			// invisible in the counters above unless someone knows to
			// look. Say it loudly once.
			fmt.Fprintf(os.Stderr,
				"mppexp: warning: %d cache disk error(s) — file-backed cache at %q degraded to misses (directory unwritable or blobs corrupt?)\n",
				st.DiskErrors, *cacheDir)
		}
	}
	if partials > 0 {
		fmt.Fprintf(os.Stderr, "mppexp: %d experiment(s) returned partial results\n", partials)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "mppexp: %d experiment(s) failed\n", failures)
		stopProf()
		os.Exit(1)
	}
}
