// Package pebble implements the multiprocessor red-blue pebble game (MPP)
// of Böhnlein, Papp and Yzelman (SPAA 2024), together with its k=1
// specialization, the classic single-processor red-blue pebble game (SPP).
//
// An Instance couples a computational DAG with the game parameters: k
// processors, r red pebbles (fast-memory slots) per processor, and the I/O
// cost g. A Strategy is a sequence of Moves; each Move applies one of the
// transition rules (R1-M)–(R4-M) to a shaded selection of processors:
//
//	Write   (R1-M): each selected processor p turns a red pebble of shade p
//	                into an additional blue pebble (store to slow memory).
//	Read    (R2-M): each selected processor p places a red pebble of shade p
//	                on a node holding a blue pebble (load from slow memory).
//	Compute (R3-M): each selected processor p places a red pebble of shade p
//	                on a node whose predecessors all hold shade-p red
//	                pebbles.
//	Delete  (R4-M): remove red or blue pebbles (free).
//
// A Write or Read move costs g regardless of how many processors
// participate; a Compute move costs ComputeCost (1 in the paper's MPP, 0 in
// classic SPP); a Delete move is free. The Replay engine validates a
// strategy against the rules and the per-processor memory bound and
// produces a cost Report.
package pebble

import (
	"fmt"
	"math"

	"repro/internal/dag"
)

// Params holds the game parameters of an MPP instance.
type Params struct {
	K int // number of processors (shades); K = 1 gives SPP
	R int // red pebbles (fast memory slots) per processor
	G int // cost of one I/O move (rule R1-M / R2-M)

	// ComputeCost is the cost of one Compute move. The paper's MPP fixes
	// this to 1; classic SPP (Hong–Kung) uses 0, turning the objective
	// into pure I/O minimization.
	ComputeCost int

	// OneShot, when true, forbids computing the same node twice — the
	// "one-shot" SPP variant used by the inapproximability construction
	// (Theorem 2).
	OneShot bool
}

// AppendWords appends the packed identity of the parameters — K, R, G,
// ComputeCost, and the one-shot bit, one word each — to dst and returns
// the extended slice. Two Params values encode identically iff they are
// ==, making the words usable as the parameter half of an instance
// fingerprint (see internal/cache); the layout mirrors Config.AppendWords.
func (p Params) AppendWords(dst []uint64) []uint64 {
	oneShot := uint64(0)
	if p.OneShot {
		oneShot = 1
	}
	return append(dst, uint64(p.K), uint64(p.R), uint64(p.G), uint64(p.ComputeCost), oneShot)
}

// MPP returns the paper's standard parameterization: compute cost 1,
// recomputation allowed.
func MPP(k, r, g int) Params { return Params{K: k, R: r, G: g, ComputeCost: 1} }

// SPP returns classic Hong–Kung single-processor parameters: one
// processor, compute steps free, recomputation allowed.
func SPP(r, g int) Params { return Params{K: 1, R: r, G: g, ComputeCost: 0} }

// OneShotSPP returns the one-shot SPP variant (free compute, every node
// computed exactly once) used in Theorem 2.
func OneShotSPP(r, g int) Params {
	return Params{K: 1, R: r, G: g, ComputeCost: 0, OneShot: true}
}

// Instance is a DAG together with game parameters.
type Instance struct {
	Graph *dag.Graph
	Params
}

// NewInstance validates the parameters against the DAG and returns the
// instance. It enforces r ≥ Δ_in + 1, the necessary and sufficient
// condition for a valid pebbling to exist (Section 4); k ≤
// math.MaxInt32, so that every processor index fits in Action.Proc; and
// g, compute cost ≤ math.MaxInt32, so that int64 costs cannot overflow.
func NewInstance(g *dag.Graph, p Params) (*Instance, error) {
	if g == nil {
		return nil, fmt.Errorf("pebble: nil graph")
	}
	if p.K < 1 {
		return nil, fmt.Errorf("pebble: k = %d, want ≥ 1", p.K)
	}
	if p.K > math.MaxInt32 {
		return nil, fmt.Errorf("pebble: k = %d, want ≤ %d", p.K, math.MaxInt32)
	}
	if p.R < 1 {
		return nil, fmt.Errorf("pebble: r = %d, want ≥ 1", p.R)
	}
	if p.G < 0 {
		return nil, fmt.Errorf("pebble: g = %d, want ≥ 0", p.G)
	}
	if p.G > math.MaxInt32 {
		return nil, fmt.Errorf("pebble: g = %d, want ≤ %d", p.G, math.MaxInt32)
	}
	if p.ComputeCost < 0 {
		return nil, fmt.Errorf("pebble: compute cost = %d, want ≥ 0", p.ComputeCost)
	}
	if p.ComputeCost > math.MaxInt32 {
		return nil, fmt.Errorf("pebble: compute cost = %d, want ≤ %d", p.ComputeCost, math.MaxInt32)
	}
	if p.R < g.MaxInDegree()+1 {
		return nil, fmt.Errorf("pebble: r = %d < Δ_in+1 = %d; no valid pebbling exists",
			p.R, g.MaxInDegree()+1)
	}
	return &Instance{Graph: g, Params: p}, nil
}

// MustInstance is NewInstance but panics on error.
func MustInstance(g *dag.Graph, p Params) *Instance {
	in, err := NewInstance(g, p)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the node count of the instance's DAG.
func (in *Instance) N() int { return in.Graph.N() }

// WithParams returns a copy of the instance with different parameters,
// re-validated.
func (in *Instance) WithParams(p Params) (*Instance, error) {
	return NewInstance(in.Graph, p)
}

// String summarizes the instance.
func (in *Instance) String() string {
	return fmt.Sprintf("instance{%s, k=%d, r=%d, g=%d, compute=%d, oneshot=%v}",
		in.Graph.Name(), in.K, in.R, in.G, in.ComputeCost, in.OneShot)
}
