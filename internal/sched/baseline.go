package sched

import "repro/internal/pebble"

// Baseline is the naive strategy from the proof of Lemma 1: walk the nodes
// in topological order; for each node, load its (already slow-memory-
// resident) predecessors into one processor, compute it, store it back,
// and drop all red pebbles. Each node costs at most (Δ_in+1)·g + 1, so the
// total cost is at most (g·(Δ_in+1)+1)·n, matching the lemma's upper
// bound.
//
// Processors are used round-robin, which changes nothing about the cost
// but exercises all shades.
type Baseline struct{}

// Name implements Scheduler.
func (Baseline) Name() string { return "baseline" }

// Schedule implements Scheduler.
func (Baseline) Schedule(in *pebble.Instance) (*pebble.Strategy, error) {
	g := in.Graph
	s := &pebble.Strategy{}
	p := 0
	for _, v := range g.Topo() {
		// Load predecessors from slow memory (every previously computed
		// node was stored).
		for _, u := range g.Pred(v) {
			s.Append(pebble.Read(pebble.At(p, u)))
		}
		s.Append(pebble.Compute(pebble.At(p, v)))
		s.Append(pebble.Write(pebble.At(p, v)))
		// Drop the red pebbles; the blue copy of v persists, and sinks
		// end up blue, satisfying the terminal condition.
		acts := make([]pebble.Action, 0, g.InDegree(v)+1)
		for _, u := range g.Pred(v) {
			acts = append(acts, pebble.At(p, u))
		}
		acts = append(acts, pebble.At(p, v))
		s.Append(pebble.Delete(acts...))
		p = (p + 1) % in.K
	}
	return s, nil
}
