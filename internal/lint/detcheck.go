package lint

import "sort"

// DetCheck guards the deterministic engine's core promise: byte-
// identical Results run to run. That promise dies quietly — a map
// iteration feeding the result order, a time.Now sneaking into a
// tie-break, a select racing two result channels — so every function
// transitively reachable from a `//mpp:deterministic` root (the exact
// engine's entry point, engine.run) is checked for the three hazards:
//
//   - ranging over a map (iteration order is randomized; iterate
//     sorted keys instead);
//   - calling time.Now or anything in math/rand (wall clock and
//     randomness are not functions of the instance);
//   - selecting over two or more result-carrying channels (which
//     result arrives first is the scheduler's choice; pure
//     synchronization receives like `<-done` are exempt).
//
// Reachability runs over the facts layer's static call graph. Dynamic
// calls — interface methods (the solver's hashtab.Index), function
// values, closures called through variables — produce no edge, so code
// behind them must be annotated as its own root if it matters; this is
// the documented soundness limit of a stdlib-only call graph.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc: "functions reachable from //mpp:deterministic roots may not " +
		"range over maps, call time.Now/math/rand, or select over " +
		"multiple result-carrying channels",
	RunModule: runDetCheck,
}

func runDetCheck(mp *ModulePass) error {
	facts := mp.Facts
	var roots []string
	for key, fn := range facts.Funcs {
		if fn.DetRoot {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)

	// BFS from the roots in sorted order; the first root to discover a
	// function owns the attribution, which keeps messages stable.
	rootOf := make(map[string]string)
	var order []string
	for _, root := range roots {
		if _, seen := rootOf[root]; seen {
			continue
		}
		queue := []string{root}
		rootOf[root] = root
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			order = append(order, key)
			fn := facts.Funcs[key]
			if fn == nil {
				continue // dangling edge: dynamic or out-of-set callee
			}
			for _, callee := range fn.Callees {
				if _, seen := rootOf[callee]; !seen {
					rootOf[callee] = rootOf[root]
					queue = append(queue, callee)
				}
			}
		}
	}

	for _, key := range order {
		fn := facts.Funcs[key]
		if fn == nil {
			continue
		}
		rootFn := facts.Funcs[rootOf[key]]
		for _, v := range fn.Det {
			mp.Reportf(fn.Pkg, v.Pos,
				"%s in deterministic code (%s is reachable from //mpp:deterministic root %s)",
				v.Msg, fn.Display, rootFn.Display)
		}
	}
	return nil
}
