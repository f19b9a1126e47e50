// Package proofs encodes the explicit pebbling strategies that the
// paper's proofs construct for its gadget DAGs. Each function returns the
// exact move sequence a proof describes; experiments validate every
// strategy with pebble.Replay, so the costs the paper claims are checked,
// not assumed.
//
// Builders panic (via pebble.Builder) if a strategy violates the rules —
// that would be a bug in the encoded proof, not an input error.
package proofs

import (
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
)

// computeInput computes one zipper/fanchain input node together with its
// anti-recompute tail (if any) on processor p, leaving a red pebble on
// the input only. Uses 2 transient slots plus the input's slot.
func computeInput(b *pebble.Builder, p int, g *dag.Graph, u dag.NodeID) {
	preds := g.Pred(u)
	if len(preds) == 0 {
		b.Compute(p, u)
		return
	}
	// Walk up the tail chain to its source, then compute down.
	var chain []dag.NodeID
	cur := u
	for {
		chain = append(chain, cur)
		ps := g.Pred(cur)
		if len(ps) == 0 {
			break
		}
		cur = ps[0]
	}
	// chain is [u, ..., tailSource]; compute in reverse.
	for i := len(chain) - 1; i >= 0; i-- {
		b.Compute(p, chain[i])
		if i < len(chain)-1 {
			b.DropRed(p, chain[i+1])
		}
	}
}

// ZipperAmple is the proof strategy for the zipper with ample memory
// (r ≥ 2d+2): park both input groups in fast memory and walk the chain
// with the two remaining pebbles — zero I/O.
func ZipperAmple(in *pebble.Instance, ids *gen.ZipperIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	const p = 0
	for _, u := range ids.S1 {
		computeInput(b, p, in.Graph, u)
	}
	for _, u := range ids.S2 {
		computeInput(b, p, in.Graph, u)
	}
	for i, v := range ids.Chain {
		b.Compute(p, v)
		if i > 0 {
			b.DropRed(p, ids.Chain[i-1])
		}
	}
	return b.Strategy()
}

// ZipperSwap is the proof strategy for the zipper with tight memory
// (r = d+2) on a single processor: the non-active group's pebbles are
// repeatedly written out and read back, costing ≈ d·g + 1 per chain node
// (the paper's Figure 2 discussion).
func ZipperSwap(in *pebble.Instance, ids *gen.ZipperIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	const p = 0
	group := func(i int) []dag.NodeID { // group used by chain node i (0-indexed)
		if (i+1)%2 == 1 {
			return ids.S1
		}
		return ids.S2
	}
	s2Computed := false

	// Compute S1 (+tails), keep red, back it up to slow memory.
	for _, u := range ids.S1 {
		computeInput(b, p, in.Graph, u)
		b.Save(p, u)
	}
	for i, v := range ids.Chain {
		cur := group(i)
		if i > 0 {
			prevGroup := group(i - 1)
			// Swap: drop the previous group, bring in the current one.
			b.DropRed(p, prevGroup...)
			if cur[0] == ids.S2[0] && !s2Computed {
				// First time S2 is needed: compute it (and back it up).
				for _, u := range ids.S2 {
					computeInput(b, p, in.Graph, u)
					b.Save(p, u)
				}
				s2Computed = true
			} else {
				for _, u := range cur {
					b.EnsureRed(p, u)
				}
			}
		}
		b.Compute(p, v)
		if i > 0 {
			b.DropRed(p, ids.Chain[i-1])
		}
	}
	return b.Strategy()
}

// ZipperParallel is the Lemma 10 proof strategy: two processors with
// r = d+2 each park one input group, compute alternating chain nodes, and
// hand each chain value over through slow memory — ≈ 2g+1 per chain node,
// a superlinear speedup over ZipperSwap's ≈ d·g+1 for large d.
func ZipperParallel(in *pebble.Instance, ids *gen.ZipperIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	d := len(ids.S1)
	// Both processors build their groups; tails advance in parallel where
	// lengths allow (sequential interleave is also fine cost-wise only if
	// batched — so batch the input computations pairwise).
	// For simplicity and to realize the claimed parallel cost, compute
	// pairwise: input i of S1 on p0 simultaneously with input i of S2 on
	// p1, walking both tails in lock-step.
	for i := 0; i < d; i++ {
		u0, u1 := ids.S1[i], ids.S2[i]
		chain0 := tailChain(in.Graph, u0)
		chain1 := tailChain(in.Graph, u1)
		// Tails have equal length by construction.
		for j := 0; j < len(chain0); j++ {
			b.ComputeParallel(pebble.At(0, chain0[j]), pebble.At(1, chain1[j]))
			if j > 0 {
				b.DropRed(0, chain0[j-1])
				b.DropRed(1, chain1[j-1])
			}
		}
		last0, last1 := chain0[len(chain0)-1], chain1[len(chain1)-1]
		if last0 != u0 {
			b.ComputeParallel(pebble.At(0, u0), pebble.At(1, u1))
			b.DropRed(0, last0)
			b.DropRed(1, last1)
		}
	}
	// Walk the chain: odd chain nodes (S1) on p0, even on p1.
	for i, v := range ids.Chain {
		owner := i % 2 // chain node 1 (index 0) uses S1 → p0
		if i > 0 {
			prev := ids.Chain[i-1]
			b.Write(pebble.At(1-owner, prev))
			b.Read(pebble.At(owner, prev))
			b.DropRed(1-owner, prev)
		}
		b.Compute(owner, v)
		if i > 0 {
			b.DropRed(owner, ids.Chain[i-1])
		}
	}
	return b.Strategy()
}

// tailChain returns the path from the tail source down to u (inclusive);
// for tail-less inputs it returns [u].
func tailChain(g *dag.Graph, u dag.NodeID) []dag.NodeID {
	var rev []dag.NodeID
	cur := u
	for {
		rev = append(rev, cur)
		ps := g.Pred(cur)
		if len(ps) == 0 {
			break
		}
		cur = ps[0]
	}
	out := make([]dag.NodeID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// CyclicResident pebbles a CyclicFanChain with the whole pool parked in
// fast memory (requires r ≥ D+2): zero I/O, cost exactly n — the
// one-processor side of Lemma 8's fair comparison.
func CyclicResident(in *pebble.Instance, ids *gen.CyclicIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	const p = 0
	for _, u := range ids.Pool {
		b.Compute(p, u)
	}
	for i, v := range ids.Chain {
		b.Compute(p, v)
		if i > 0 {
			b.DropRed(p, ids.Chain[i-1])
		}
	}
	return b.Strategy()
}

// CyclicStarved pebbles a CyclicFanChain on one (of possibly many)
// processors whose fast memory r < D+2 cannot hold the pool: a prefix of
// ρ = r−δ−2 pool nodes stays resident, the rest streams in per chain
// node — realizing the ≈ g·(Δ_in−1)·(1−ρ/D) + 1 per-node cost that
// Lemma 8's lower bound says is unavoidable in the fair comparison.
func CyclicStarved(in *pebble.Instance, ids *gen.CyclicIDs, delta, stride int) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	const p = 0
	D := len(ids.Pool)
	rho := in.R - delta - 2
	if rho < 0 {
		rho = 0
	}
	if rho > D {
		rho = D
	}
	resident := map[dag.NodeID]bool{}
	// Compute the pool: residents stay red; the rest is written to slow
	// memory and dropped.
	for idx, u := range ids.Pool {
		b.Compute(p, u)
		if idx < rho {
			resident[u] = true
			continue
		}
		b.Save(p, u)
		b.DropRed(p, u)
	}
	for i, v := range ids.Chain {
		var transient []dag.NodeID
		for _, j := range ids.Subset(i, delta, stride) {
			u := ids.Pool[j]
			if resident[u] {
				continue
			}
			b.EnsureRed(p, u)
			transient = append(transient, u)
		}
		b.Compute(p, v)
		b.DropRed(p, transient...)
		if i > 0 {
			b.DropRed(p, ids.Chain[i-1])
		}
	}
	return b.Strategy()
}

// MultiCyclicSerial pebbles c CyclicFanChain copies on one processor with
// r ≥ D+3: copies run one after another with zero I/O, earlier sinks
// staying red (Lemma 9's k = 1 case; r₀ = 2(D+2) ≥ D+2+c for c = 2).
func MultiCyclicSerial(in *pebble.Instance, ids *gen.MultiCyclicIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	const p = 0
	for _, c := range ids.Copies {
		for _, u := range c.Pool {
			b.Compute(p, u)
		}
		for i, v := range c.Chain {
			b.Compute(p, v)
			if i > 0 {
				b.DropRed(p, c.Chain[i-1])
			}
		}
		// Retire the copy, keeping only its sink.
		b.DropRed(p, c.Pool...)
	}
	return b.Strategy()
}

// MultiCyclicPerChain pebbles c copies on c processors simultaneously
// (processor j owns copy j), all moves in lock-step parallel: zero I/O
// and exactly (D + chainLen) compute moves — Lemma 9's k = 2 sweet spot.
func MultiCyclicPerChain(in *pebble.Instance, ids *gen.MultiCyclicIDs) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	c := len(ids.Copies)
	D := len(ids.Copies[0].Pool)
	for idx := 0; idx < D; idx++ {
		acts := make([]pebble.Action, c)
		for j := range ids.Copies {
			acts[j] = pebble.At(j, ids.Copies[j].Pool[idx])
		}
		b.ComputeParallel(acts...)
	}
	for i := range ids.Copies[0].Chain {
		acts := make([]pebble.Action, c)
		for j := range ids.Copies {
			acts[j] = pebble.At(j, ids.Copies[j].Chain[i])
		}
		b.ComputeParallel(acts...)
		if i > 0 {
			for j := range ids.Copies {
				b.DropRed(j, ids.Copies[j].Chain[i-1])
			}
		}
	}
	return b.Strategy()
}

// MultiCyclicStarved pebbles c copies with one active processor per copy
// (processors c..k−1 idle) under starved memory r < D+2: per chain node,
// the active processors stream their missing pool inputs with reads
// batched across processors — the Lemma 9 k = 4 regime where the fair
// memory split makes everything slower than k = 2.
func MultiCyclicStarved(in *pebble.Instance, ids *gen.MultiCyclicIDs, delta, stride int) *pebble.Strategy {
	b := pebble.NewBuilder(in)
	c := len(ids.Copies)
	D := len(ids.Copies[0].Pool)
	rho := in.R - delta - 2
	if rho < 0 {
		rho = 0
	}
	if rho > D {
		rho = D
	}
	// Pool phase: lock-step computes; non-residents written (batched) and
	// dropped.
	for idx := 0; idx < D; idx++ {
		acts := make([]pebble.Action, c)
		for j := range ids.Copies {
			acts[j] = pebble.At(j, ids.Copies[j].Pool[idx])
		}
		b.ComputeParallel(acts...)
		if idx >= rho {
			b.Write(acts...)
			for _, a := range acts {
				b.DropRed(int(a.Proc), a.Node)
			}
		}
	}
	for i := range ids.Copies[0].Chain {
		// Gather per-copy missing inputs; all copies share the same
		// subset pattern, so the missing lists have equal length and zip
		// into shared read moves.
		missing := make([][]dag.NodeID, c)
		for j, cp := range ids.Copies {
			for _, poolIdx := range cp.Subset(i, delta, stride) {
				if poolIdx >= rho {
					missing[j] = append(missing[j], cp.Pool[poolIdx])
				}
			}
		}
		for t := 0; t < len(missing[0]); t++ {
			acts := make([]pebble.Action, c)
			for j := range ids.Copies {
				acts[j] = pebble.At(j, missing[j][t])
			}
			b.Read(acts...)
		}
		acts := make([]pebble.Action, c)
		for j := range ids.Copies {
			acts[j] = pebble.At(j, ids.Copies[j].Chain[i])
		}
		b.ComputeParallel(acts...)
		for j := range ids.Copies {
			b.DropRed(j, missing[j]...)
			if i > 0 {
				b.DropRed(j, ids.Copies[j].Chain[i-1])
			}
		}
	}
	return b.Strategy()
}
