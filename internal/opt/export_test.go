package opt

import (
	"context"

	"repro/internal/dag"
	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// Test-only solve helpers: the single-worker ground-truth configuration
// and the oracle runs of the exact solvers.
//
// An oracle run is the identical search code run against the map-backed
// hashtab.Ref instead of the open-addressing table. Because the
// traversal, tie-breaking (deepest g, then latest push, within each
// f-bucket of the bucket queue) and pruning logic are shared and only the state-identity structure is
// swapped, an oracle run must return byte-identical results — the whole
// Result for ExactWith, (Feasible, States, Order) for ZeroIO. The
// equivalence tests assert exactly that on the DAG zoo and the Theorem 2
// reduction instances.

// seqConfig is DefaultConfig pinned to one worker. ModeDeterministic
// ignores Workers, so the pin only states what the tests compare
// against: the one-shard run, whatever the machine's GOMAXPROCS.
func seqConfig(maxStates int) Config {
	cfg := DefaultConfig(maxStates)
	cfg.Workers = 1
	return cfg
}

// exactSeq solves in under seqConfig.
func exactSeq(in *pebble.Instance, maxStates int) (*Result, error) {
	return ExactWith(context.Background(), in, seqConfig(maxStates))
}

// witnessSeq is exactSeq additionally reconstructing an optimal
// strategy.
func witnessSeq(in *pebble.Instance, maxStates int) (*Result, error) {
	cfg := seqConfig(maxStates)
	cfg.Witness = true
	return ExactWith(context.Background(), in, cfg)
}

// exactOracle is ExactWith backed by the map-based reference state
// table, so every Config combination — heuristic mode, dominance,
// witness, worker count (each shard gets its own Ref) — can be locked
// byte-for-byte against the arena-backed run.
func exactOracle(in *pebble.Instance, cfg Config) (*Result, error) {
	return exact(context.Background(), in, cfg, func() hashtab.Index { return hashtab.NewRef(stateWords(in.K)) })
}

// exactVisits is ExactWith that also returns the number of dominance
// records its checks visited, summed over shards — the work measure of
// the dominance index. The solvers stay out of the pool, so their
// counters are read before anything can recycle them.
func exactVisits(in *pebble.Instance, cfg Config) (*Result, int, error) {
	newTab := func() hashtab.Index { return hashtab.New(stateWords(in.K), 1024) }
	eng := newEngine(context.Background(), in, cfg, newTab, false)
	res, err := eng.run()
	visits := 0
	for _, s := range eng.shards {
		visits += s.domVisits
	}
	return res, visits, err
}

// zeroIOOracle is ZeroIO backed by the map-based reference memo.
func zeroIOOracle(g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	words := (g.N() + 63) / 64
	if words == 0 {
		words = 1
	}
	return zeroIO(context.Background(), g, r, maxStates, hashtab.NewRef(words))
}
