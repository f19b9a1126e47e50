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

// countingIndex is a state table that counts the probes a search makes
// of it, by Find and by Insert.
type countingIndex struct {
	hashtab.Index
	finds, inserts int
}

func (c *countingIndex) Find(key []uint64) (int, bool) {
	c.finds++
	return c.Index.Find(key)
}

func (c *countingIndex) Insert(key []uint64) (int, bool) {
	c.inserts++
	return c.Index.Insert(key)
}

// exactProbes is ExactWith on counting open-addressing tables, passed
// through exact's table seam, so the run stays out of the pool. It
// returns the Find and Insert calls summed over shards; read them only
// on one shard, where no other goroutine counts.
func exactProbes(in *pebble.Instance, cfg Config) (res *Result, finds, inserts int, err error) {
	var tabs []*countingIndex
	newTab := func() hashtab.Index {
		c := &countingIndex{Index: hashtab.New(stateWords(in.K), 1024)}
		tabs = append(tabs, c)
		return c
	}
	res, err = exact(context.Background(), in, cfg, newTab)
	for _, c := range tabs {
		finds += c.finds
		inserts += c.inserts
	}
	return res, finds, inserts, err
}

// zeroIOOracle is ZeroIO backed by the map-based reference memo.
func zeroIOOracle(g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	words := (g.N() + 63) / 64
	if words == 0 {
		words = 1
	}
	return zeroIO(context.Background(), g, r, maxStates, hashtab.NewRef(words))
}
