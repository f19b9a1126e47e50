// Package cache memoizes exact-solver results behind canonical instance
// fingerprints: a content address derived from the DAG's structure, the
// packed game parameters, and the result-affecting subset of the search
// configuration, held in a bounded in-memory LRU with an optional
// file-backed store so results survive process restarts.
//
// The package is deliberately value-agnostic: entries hold `any` and a
// caller-supplied Codec serializes them for the file store, so cache
// does not import the solver package (internal/opt wraps it as
// SolveCached without an import cycle).
//
// What is and is not in a key. The fingerprint must change whenever the
// solver's answer could, and must NOT change when it provably cannot:
//
//   - In: the DAG's node count and edge set (dag.AppendCanonicalWords,
//     representation-stable), every pebble.Params field, the heuristic
//     mode, the dominance and witness switches, and — for complete-result
//     keys — the normalized state budget (a proven optimum found under
//     budget B must not be served to a caller whose budget B' < B would
//     have stopped the search short of proving it).
//   - Out: Workers and the engine Mode (optima are engine-invariant:
//     every worker count and both modes prove the same optimum, and a
//     deterministic solve runs on one shard whatever Workers says, so
//     its results are byte-identical at every setting), the DAG's name
//     and labels (cosmetic), and
//     wall-clock deadlines (a deadline stop is not a function of the
//     instance, so deadline/canceled results are never cached at all —
//     that is how "deadline-partiality enters the key": as a key that is
//     never written).
//
// Partial (budget-stopped) brackets are stored under a separate key
// domain (PartialKeyOf) that omits the budget; the entry records the
// budget it was computed under and Cache.GetPartial only serves it to
// callers with an equal-or-looser budget, so a cached wide-budget
// bracket can never launder a tighter bound than the caller's own
// budget justifies.
package cache

import (
	"fmt"

	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// keyVersion tags the canonical word layout and the semantics of the
// results stored under it. Bump it whenever either changes so stale
// file-store blobs miss cleanly instead of decoding under the wrong
// semantics. Version 2: deterministic solves run on one shard, so
// States, Pruned, brackets and witnesses differ from version 1's.
// Version 3: the search generates only maximal parallel moves, which
// changes States, Pruned, budget-stop brackets and witnesses.
// Version 4: a witness solve runs the value solve's canonicalized,
// dominance-pruned search, which changes witness Results' States,
// Pruned and Strategy; Dominance now keys witness entries apart.
// Version 5: the search's queue pops the deepest g first among equal f,
// which changes States, Pruned, budget-stop brackets and witnesses.
// Version 6: the state table drops a duplicate before dominance is
// checked, so Pruned counts only dominance rejections of new states and
// cheaper paths; States, brackets and witnesses are unchanged.
// Version 7: the search prunes no candidate against a settled state
// (Dominance selects only lazy deletion), so Pruned counts only
// one-shot dead states, and where the index used to prune, as in
// one-shot solves at k ≥ 2, States, brackets and witnesses can differ.
const keyVersion = 7

// Key domain tags, so a complete-result key and a partial-bracket key of
// the same instance can never collide.
const (
	tagComplete = 0x6f7074 // "opt"
	tagPartial  = 0x706172 // "par"
)

// keySeed is the word prepended for the second hash pass (an arbitrary
// odd constant, splitmix64's increment). Prepending — rather than
// appending — restarts the FNV fold from a different state, so the two
// 64-bit halves are independent functions of the whole word stream, not
// two finishes of the same 64-bit fold.
const keySeed = 0x9e3779b97f4a7c15

// Key is a 128-bit content address: two independently seeded
// hashtab.Hash passes over the same canonical words. 64 bits would make
// accidental collisions plausible over a long-lived file store; at 128
// they are negligible for any realistic corpus.
type Key struct {
	Hi, Lo uint64
}

// String renders the key as 32 hex digits — the file-store blob name.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// SolverConfig is the result-affecting subset of the exact solver's
// configuration: the fields that can change a Result's content, as
// opposed to how fast it is produced. Workers and the engine mode are
// deliberately absent (see the package comment).
type SolverConfig struct {
	// Heuristic is the admissible bound stack the search runs under
	// (opt.HeuristicMode's underlying value).
	Heuristic uint8
	// Dominance selects the lazy-deletion normal form (deletes on full
	// processors only).
	Dominance bool
	// Witness requests move-sequence reconstruction.
	Witness bool
	// MaxStates is the state budget, 0 meaning unbounded. It enters
	// complete-result keys (a proven optimum is only reproducible by
	// budgets that let the search finish) and is carried on partial
	// entries for the equal-or-looser serve guard.
	MaxStates int
}

// Normalize collapses semantically identical configurations onto one
// key: every non-positive budget means "unbounded".
func (sc SolverConfig) Normalize() SolverConfig {
	if sc.MaxStates < 0 {
		sc.MaxStates = 0
	}
	return sc
}

// KeyOf fingerprints (instance, config) for complete-result lookups.
// The canonical word stream is: seed slot, key version, domain tag, the
// DAG words, the Params words, then the config words including the
// normalized budget.
func KeyOf(in *pebble.Instance, sc SolverConfig) Key {
	return hashWords(appendKeyWords(in, sc, tagComplete, true))
}

// PartialKeyOf fingerprints (instance, config) for budget-stopped
// bracket lookups. The budget is omitted from the key — one instance has
// one partial slot, and the budget lives on the entry where GetPartial's
// serve guard can compare it against the caller's.
func PartialKeyOf(in *pebble.Instance, sc SolverConfig) Key {
	return hashWords(appendKeyWords(in, sc, tagPartial, false))
}

func appendKeyWords(in *pebble.Instance, sc SolverConfig, tag uint64, budgetInKey bool) []uint64 {
	sc = sc.Normalize()
	words := make([]uint64, 1, 16+in.Graph.M())
	words = append(words, keyVersion, tag)
	words = in.Graph.AppendCanonicalWords(words)
	words = in.Params.AppendWords(words)
	dom, wit := uint64(0), uint64(0)
	if sc.Dominance {
		dom = 1
	}
	if sc.Witness {
		wit = 1
	}
	words = append(words, uint64(sc.Heuristic), dom, wit)
	if budgetInKey {
		words = append(words, uint64(sc.MaxStates))
	}
	return words
}

// hashWords derives the 128-bit key from the canonical words: words[0]
// is the reserved seed slot, rewritten between the two passes.
func hashWords(words []uint64) Key {
	words[0] = 0
	lo := hashtab.Hash(words)
	words[0] = keySeed
	hi := hashtab.Hash(words)
	return Key{Hi: hi, Lo: lo}
}
