package opt

// Content-addressable memoization of exact solves. SolveCached wraps
// ExactWith with a SolveCache: the (instance, result-affecting config)
// fingerprint (internal/cache) is looked up before searching, and
// deterministic results are stored after. The contract is
// byte-identity: a cache hit returns exactly the Result (and error) the
// same deterministic solve would have produced fresh. That rests on the
// one-shard engine: a ModeDeterministic Result, witness Strategy
// included, is a pure function of (instance, Heuristic, Dominance,
// Witness, MaxStates), whatever Config.Workers says. Hence the write
// policy:
//
//   - Only ModeDeterministic runs populate the cache. Async Results are
//     exact in Cost/Status but carry timing-dependent statistics; caching
//     them would poison determinism for later deterministic callers.
//     Async callers may still read hits (their statistics are
//     documented as timing-dependent, so deterministic values satisfy
//     the contract), and Workers/Mode are deliberately not in the key.
//   - Only StatusComplete results enter the complete-result store, and
//     only StatusBudget results the partial store. StatusCanceled
//     (deadline/cancel) results are never cached: a wall-clock stop is
//     not a function of the instance.
//   - The cache stores and serves clones. Callers own the Result a
//     solve returns and may mutate it (exp.raiseLowerBound does), so a
//     shared pointer would let one caller corrupt every later hit.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/pebble"
)

// SolveCache memoizes exact-solver Results behind canonical instance
// fingerprints. Safe for concurrent use; share one per process (or per
// service) and pass it to SolveCached.
type SolveCache struct {
	c *cache.Cache
}

// NewSolveCache returns a SolveCache under the given options. When
// opts.Dir is set and no Codec is given, Results are serialized with
// the built-in gob codec.
func NewSolveCache(opts cache.Options) *SolveCache {
	if opts.Dir != "" && opts.Codec == nil {
		opts.Codec = resultCodec{}
	}
	return &SolveCache{c: cache.New(opts)}
}

// Stats returns a snapshot of the cache's hit/miss/eviction/bytes
// counters.
func (sc *SolveCache) Stats() cache.Stats { return sc.c.Stats() }

// solverSubset extracts the result-affecting subset of cfg — the
// fingerprint's config half. Workers and Mode are deliberately dropped
// (see the file comment).
func solverSubset(cfg Config) cache.SolverConfig {
	return cache.SolverConfig{
		Heuristic: uint8(cfg.Heuristic),
		Dominance: cfg.Dominance,
		Witness:   cfg.Witness,
		MaxStates: cfg.MaxStates,
	}.Normalize()
}

// SolveCached is ExactWith through a cache: a hit returns the memoized
// Result (cloned, with the same error a fresh solve would return)
// without searching; a miss solves and, when the run is deterministic
// and not deadline-stopped, stores the Result for the next caller. A
// nil sc degrades to a plain ExactWith. A hit never consults ctx — the
// work is already done.
func SolveCached(ctx context.Context, in *pebble.Instance, cfg Config, sc *SolveCache) (*Result, error) {
	if sc == nil {
		return ExactWith(ctx, in, cfg)
	}
	sub := solverSubset(cfg)
	key := cache.KeyOf(in, sub)
	if e, ok := sc.c.Get(key); ok {
		if res, ok := e.Value.(*Result); ok {
			return cloneResult(res), nil
		}
	}
	var pkey cache.Key
	if sub.MaxStates > 0 {
		pkey = cache.PartialKeyOf(in, sub)
		if e, ok := sc.c.GetPartial(pkey, sub.MaxStates); ok {
			if res, ok := e.Value.(*Result); ok {
				r := cloneResult(res)
				return r, budgetErr(r.States)
			}
		}
	}

	res, err := ExactWith(ctx, in, cfg)
	if res == nil || cfg.Mode != ModeDeterministic {
		return res, err
	}
	switch {
	case err == nil && res.Status == StatusComplete:
		sc.c.Put(key, cache.Entry{Value: cloneResult(res), Size: resultBytes(res)})
	case errors.Is(err, ErrBudget) && res.Status == StatusBudget && sub.MaxStates > 0:
		sc.c.Put(pkey, cache.Entry{Value: cloneResult(res), Size: resultBytes(res), Budget: sub.MaxStates})
	}
	return res, err
}

// cloneResult returns a copy whose mutation cannot reach the original:
// a shallow struct copy plus a deep Strategy copy when present.
func cloneResult(r *Result) *Result {
	out := *r
	out.Strategy = r.Strategy.Clone()
	return &out
}

// resultBytes estimates a Result's retained heap bytes for the cache's
// byte bound: the struct itself plus the witness strategy's columns. An
// estimate is all the bound needs.
func resultBytes(r *Result) int64 {
	const (
		baseBytes     = 96 // Result struct
		strategyBytes = 72 // Strategy: three slice headers
		moveBytes     = 5  // kind + end of its actions
		actionBytes   = 8  // Action (proc + node)
	)
	b := int64(baseBytes)
	if st := r.Strategy; st != nil {
		b += strategyBytes
		for i := range st.Len() {
			b += moveBytes + actionBytes*int64(len(st.Move(i).Actions))
		}
	}
	return b
}

// resultCodec serializes *Result blobs for the file-backed store via
// encoding/gob (a witness Strategy encodes itself in its JSON wire form).
type resultCodec struct{}

func (resultCodec) Encode(v any) ([]byte, error) {
	res, ok := v.(*Result)
	if !ok {
		return nil, fmt.Errorf("opt: cache codec: unexpected value type %T", v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, fmt.Errorf("opt: encoding cached result: %w", err)
	}
	return buf.Bytes(), nil
}

func (resultCodec) Decode(data []byte) (any, error) {
	res := new(Result)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(res); err != nil {
		return nil, fmt.Errorf("opt: decoding cached result: %w", err)
	}
	return res, nil
}
