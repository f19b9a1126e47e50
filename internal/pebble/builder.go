package pebble

import (
	"fmt"
	"slices"

	"repro/internal/dag"
)

// Builder incrementally constructs a Strategy while tracking the resulting
// configuration, so hand-crafted gadget strategies (the ones the paper's
// proofs describe) can be written as straight-line code. Builder methods
// panic on rule violations — a violation in a proof-encoded strategy is a
// programming error — but every strategy produced here is additionally
// validated by Replay in tests and experiments.
//
// The Builder mirrors each Red set with a cached cardinality so the
// memory-bound check and FreeSlots are O(1) instead of a popcount over
// n/64 words — at 10^6 nodes the popcount would dominate every move.
type Builder struct {
	in       *Instance
	cfg      *Config
	s        Strategy
	redCount []int // redCount[p] == cfg.Red[p].Count(), maintained exactly
}

// NewBuilder returns a Builder over the given instance starting from the
// empty configuration.
func NewBuilder(in *Instance) *Builder {
	return &Builder{
		in:       in,
		cfg:      NewConfig(in.Graph.N(), in.K),
		redCount: make([]int, in.K),
	}
}

// Config returns the current configuration (live; do not modify).
func (b *Builder) Config() *Config { return b.cfg }

// Strategy returns the accumulated strategy. It shares the Builder's
// storage, capped at its current length, so a later append to either
// copies instead of overwriting the other.
func (b *Builder) Strategy() *Strategy {
	return &Strategy{kinds: slices.Clip(b.s.kinds), ends: slices.Clip(b.s.ends), acts: slices.Clip(b.s.acts)}
}

// fail panics with the builder's diagnostic: a rule violation in a
// proof-encoded strategy is a programmer error (see the type comment),
// and every builder-produced strategy is re-validated by Replay anyway.
func (b *Builder) fail(format string, args ...any) {
	panic(fmt.Sprintf("pebble.Builder: "+format, args...))
}

// addRed inserts v into shade p's red set, keeping the cached count exact.
func (b *Builder) addRed(p int, v dag.NodeID) {
	if b.cfg.Red[p].TestAndSet(int(v)) {
		b.redCount[p]++
	}
}

// removeRed deletes v from shade p's red set, keeping the cached count
// exact; reports whether v was present.
func (b *Builder) removeRed(p int, v dag.NodeID) bool {
	if b.cfg.Red[p].TestAndClear(int(v)) {
		b.redCount[p]--
		return true
	}
	return false
}

// Compute issues a compute move: processor p computes each node in vs
// (one move per node when len(vs) > 1 would break injectivity, so this
// issues len(vs) sequential moves, all on p).
func (b *Builder) Compute(p int, vs ...dag.NodeID) {
	for _, v := range vs {
		for _, u := range b.in.Graph.Pred(v) {
			if !b.cfg.Red[p].Contains(int(u)) {
				b.fail("compute v%d on p%d: predecessor v%d not red", v, p, u)
			}
		}
		b.addRed(p, v)
		if b.redCount[p] > b.in.R {
			b.fail("compute v%d on p%d: memory bound r=%d exceeded", v, p, b.in.R)
		}
		b.s.Append(Compute(At(p, v)))
	}
}

// ComputeParallel issues one compute move in which each listed action's
// processor computes its node simultaneously.
func (b *Builder) ComputeParallel(actions ...Action) {
	for i, a := range actions {
		for j := 0; j < i; j++ {
			if actions[j].Proc == a.Proc {
				b.fail("parallel compute selects p%d twice", a.Proc)
			}
		}
		for _, u := range b.in.Graph.Pred(a.Node) {
			if !b.cfg.Red[a.Proc].Contains(int(u)) {
				b.fail("parallel compute v%d on p%d: predecessor v%d not red", a.Node, a.Proc, u)
			}
		}
	}
	for _, a := range actions {
		b.addRed(int(a.Proc), a.Node)
		if b.redCount[a.Proc] > b.in.R {
			b.fail("parallel compute: p%d exceeds r=%d", a.Proc, b.in.R)
		}
	}
	b.s.Append(Compute(actions...))
}

// Write issues one write move storing each action's node to slow memory.
func (b *Builder) Write(actions ...Action) {
	for _, a := range actions {
		if !b.cfg.Red[a.Proc].Contains(int(a.Node)) {
			b.fail("write v%d: not red on p%d", a.Node, a.Proc)
		}
		b.cfg.Blue.Add(int(a.Node))
	}
	b.s.Append(Write(actions...))
}

// Read issues one read move loading each action's node from slow memory.
func (b *Builder) Read(actions ...Action) {
	for _, a := range actions {
		if !b.cfg.Blue.Contains(int(a.Node)) {
			b.fail("read v%d: no blue pebble", a.Node)
		}
		b.addRed(int(a.Proc), a.Node)
		if b.redCount[a.Proc] > b.in.R {
			b.fail("read v%d: p%d exceeds r=%d", a.Node, a.Proc, b.in.R)
		}
	}
	b.s.Append(Read(actions...))
}

// Delete issues one delete move removing each action's pebble.
func (b *Builder) Delete(actions ...Action) {
	for _, a := range actions {
		if a.Proc == BlueProc {
			if !b.cfg.Blue.Contains(int(a.Node)) {
				b.fail("delete blue v%d: absent", a.Node)
			}
			b.cfg.Blue.Remove(int(a.Node))
			continue
		}
		if !b.removeRed(int(a.Proc), a.Node) {
			b.fail("delete v%d: not red on p%d", a.Node, a.Proc)
		}
	}
	b.s.Append(Delete(actions...))
}

// DropRed deletes the shade-p red pebbles on vs (skipping absent ones),
// as a single free move. No-op if none present.
func (b *Builder) DropRed(p int, vs ...dag.NodeID) {
	var acts []Action
	for _, v := range vs {
		if b.removeRed(p, v) {
			acts = append(acts, At(p, v))
		}
	}
	if len(acts) > 0 {
		b.s.Append(Delete(acts...))
	}
}

// DropAllRed deletes every shade-p red pebble except those in keep.
func (b *Builder) DropAllRed(p int, keep ...dag.NodeID) {
	keepSet := map[dag.NodeID]bool{}
	for _, v := range keep {
		keepSet[v] = true
	}
	var acts []Action
	b.cfg.Red[p].ForEach(func(i int) bool {
		if !keepSet[dag.NodeID(i)] {
			acts = append(acts, At(p, dag.NodeID(i)))
		}
		return true
	})
	for _, a := range acts {
		b.removeRed(p, a.Node)
	}
	if len(acts) > 0 {
		b.s.Append(Delete(acts...))
	}
}

// EnsureRed makes v red on p: a no-op if already red, a Read if v is blue;
// panics otherwise.
func (b *Builder) EnsureRed(p int, v dag.NodeID) {
	if b.cfg.Red[p].Contains(int(v)) {
		return
	}
	if !b.cfg.Blue.Contains(int(v)) {
		b.fail("EnsureRed v%d on p%d: neither red nor blue", v, p)
	}
	b.Read(At(p, v))
}

// Save writes v to slow memory if it is not already blue.
func (b *Builder) Save(p int, v dag.NodeID) {
	if b.cfg.Blue.Contains(int(v)) {
		return
	}
	b.Write(At(p, v))
}

// FreeSlots returns r − |R^p|, the remaining fast-memory capacity of p.
func (b *Builder) FreeSlots(p int) int { return b.in.R - b.redCount[p] }
