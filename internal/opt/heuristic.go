package opt

// I/O-aware admissible heuristic stack for the exact solver.
//
// Three modes, selected by Config.Heuristic:
//
//   - HeuristicFloor: the original compute floor ⌈|U|/k⌉·c, where U is the
//     set of never-computed nodes. Admissible because in any reachable
//     state every uncomputed node is still an ancestor of an unpebbled
//     sink, so it must appear in some future compute move, and one move
//     computes at most k nodes.
//   - HeuristicIO: a coupled compute/I-O bound. Beyond the compute floor
//     it charges (a) a critical-chain term — uncomputed nodes on a
//     directed path cannot share a compute move, (b) the necessary-loads
//     set B = direct predecessors of U that are computed but red nowhere:
//     each such value must be re-acquired before its uncomputed successor
//     can be computed, either by a read (if blue, g per k values) or by
//     recomputation (c per k values, folded into the compute term), with
//     the split x = "how many of the blue ones to read" minimized exactly,
//     (c) forced recomputations of computed sinks that hold no pebble at
//     all (they must become pebbled again to satisfy the goal), and (d) a
//     store floor: sinks not yet blue in excess of total red capacity k·r
//     must be written, k writes per move. In one-shot mode recomputation
//     is illegal, so a state with a recompute-only obligation is dead and
//     the heuristic reports that with a negative sentinel.
//   - HeuristicMax: the pointwise max of the two (max of admissibles is
//     admissible). This is the default.
//
// Both io and max are consistent (see DESIGN.md §6 for the per-move-kind
// argument), so the monotone bucket queue's forward-only cursor and the
// anytime LowerBound monotonicity are preserved.

import (
	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/pebble"
)

// HeuristicMode selects the admissible heuristic the exact search runs
// under. The zero value is HeuristicMax, the strongest stack — callers
// that construct a Config by hand get the recommended mode for free.
type HeuristicMode uint8

const (
	// HeuristicMax is the pointwise max of the floor and io bounds.
	HeuristicMax HeuristicMode = iota
	// HeuristicFloor is the compute floor ⌈uncomputed/k⌉·computeCost.
	HeuristicFloor
	// HeuristicIO is the coupled compute/I-O bound.
	HeuristicIO
)

// deadState is the sentinel hIO returns for states that provably cannot
// reach the goal (one-shot mode only): a value is needed again but is
// neither red anywhere nor blue, and recomputation is forbidden.
const deadState int64 = -1

func (m HeuristicMode) String() string {
	switch m {
	case HeuristicFloor:
		return "floor"
	case HeuristicIO:
		return "io"
	case HeuristicMax:
		return "max"
	}
	return "unknown"
}

// ParseHeuristicMode parses "floor", "io" or "max" (the spelling used
// by the server's job requests).
func ParseHeuristicMode(s string) (HeuristicMode, bool) {
	switch s {
	case "floor":
		return HeuristicFloor, true
	case "io":
		return HeuristicIO, true
	case "max":
		return HeuristicMax, true
	}
	return HeuristicMax, false
}

// initDerived builds the instance-derived lookup state the heuristics
// and the expander share: predecessor bitmasks, the sink mask, the full
// node mask, the topological order and the chain-DP scratch. Called once
// per search (and by RootLowerBound for a one-off evaluation). It fully
// overwrites every field it fills — including explicit zeroing of the
// accumulated masks — so it is safe on a pool-recycled solver that still
// carries a previous instance's values.
func (s *solver) initDerived() {
	g := s.in.Graph
	s.predMask = resizeU64(s.predMask, s.n)
	for v := 0; v < s.n; v++ {
		s.predMask[v] = 0
		for _, u := range g.Pred(dag.NodeID(v)) {
			s.predMask[v] |= 1 << uint(u)
		}
	}
	s.sinkMask = 0
	for _, v := range g.Sinks() {
		s.sinkMask |= 1 << uint(v)
	}
	if s.n == 64 {
		s.allMask = ^uint64(0)
	} else {
		s.allMask = 1<<uint(s.n) - 1
	}
	s.kr = s.in.K * s.in.R
	s.topo = g.Topo()
	if cap(s.chainDP) < s.n {
		s.chainDP = make([]int32, s.n)
	} else {
		s.chainDP = s.chainDP[:s.n]
	}
}

// h dispatches on the configured mode. A negative return is the
// dead-state sentinel (one-shot only); relax drops such candidates.
//
//mpp:hotpath
func (s *solver) h(w []uint64) int64 {
	switch s.cfg.Heuristic {
	case HeuristicFloor:
		return s.hFloor(s.computedWord(w))
	case HeuristicIO:
		return s.hIO(w)
	default:
		hi := s.hIO(w)
		if hi < 0 {
			return hi
		}
		if hf := s.hFloor(s.computedWord(w)); hf > hi {
			return hf
		}
		return hi
	}
}

// hFloor is the original compute floor, preserved bit-for-bit: every
// never-computed node must appear in some compute move, and one move
// computes at most k of them. For classic SPP (free computes) it is 0.
//
//mpp:hotpath
func (s *solver) hFloor(computed uint64) int64 {
	if s.in.ComputeCost == 0 {
		return 0
	}
	uncomputed := s.n - popcount(computed)
	if uncomputed <= 0 {
		return 0
	}
	k := s.in.K
	return int64((uncomputed+k-1)/k) * int64(s.in.ComputeCost)
}

// hIO is the coupled compute/I-O bound described in the file comment.
//
//mpp:hotpath
func (s *solver) hIO(w []uint64) int64 {
	k := s.in.K
	g := int64(s.in.G)
	c := int64(s.in.ComputeCost)
	blue := w[k]
	computed := w[k+1]
	var redAny uint64
	for _, r := range w[:k] {
		redAny |= r
	}

	// Store floor: sinks not yet blue beyond total red capacity must be
	// written out. At any goal state the ≤ k·r unwritten sinks all fit in
	// red, so the term vanishes exactly when it must.
	var hw int64
	if g > 0 {
		if wr := popcount(s.sinkMask&^blue) - s.kr; wr > 0 {
			hw = g * int64((wr+k-1)/k)
		}
	}

	// Forced recomputations: computed sinks holding no pebble at all.
	// They must be pebbled again for the goal, and (having no
	// successors) they are disjoint from the predecessor set B below.
	resink := s.sinkMask & computed &^ (redAny | blue)
	if s.in.OneShot && resink != 0 {
		return deadState
	}
	yForced := popcount(resink)

	uncomputed := s.allMask &^ computed
	u := popcount(uncomputed)
	if u == 0 && yForced == 0 {
		return hw
	}

	// Necessary loads: direct predecessors of U that are computed but red
	// nowhere. Each must be re-acquired (read if blue, recomputed
	// otherwise) before its uncomputed successor can be computed.
	// Restricting to *direct* predecessors keeps the bound admissible
	// under recomputation: an uncomputed predecessor is already charged
	// in U itself.
	var predU uint64
	um := uncomputed
	for um != 0 {
		v := trailingZeros(um)
		um &= um - 1
		predU |= s.predMask[v]
	}
	b := predU & computed &^ redAny
	bAll := popcount(b)
	bBlue := popcount(b & blue)
	if s.in.OneShot && bAll != bBlue {
		return deadState // recompute-only obligation, recompute illegal
	}

	// Critical chain: uncomputed nodes on a directed path serialize.
	// Redundant for k == 1 (⌈u/1⌉ = u ≥ chain) and irrelevant when
	// computes are free.
	chain := 0
	if c > 0 && k > 1 {
		chain = s.chainLen(uncomputed)
	}

	if s.in.OneShot {
		// No recomputation: every B value must be read.
		hc := int64((u + k - 1) / k)
		if int64(chain) > hc {
			hc = int64(chain)
		}
		return c*hc + g*int64((bAll+k-1)/k) + hw
	}

	// Choose x = number of B values re-acquired by reading (only the blue
	// ones are readable; the rest recompute). Each split is admissible
	// for the pebblings that use it, so the min over x is admissible.
	best := int64(1) << 62
	for x := 0; x <= bBlue; x++ {
		y := yForced + bAll - x
		hc := int64((u + y + k - 1) / k)
		if int64(chain) > hc {
			hc = int64(chain)
		}
		if v := c*hc + g*int64((x+k-1)/k); v < best {
			best = v
		}
	}
	return best + hw
}

// chainLen returns the length (in nodes) of the longest directed path
// consisting solely of uncomputed nodes — a DP over the precomputed
// topological order using the chainDP scratch array.
//
//mpp:hotpath
func (s *solver) chainLen(uncomputed uint64) int {
	best := int32(0)
	for _, v := range s.topo {
		bit := uint64(1) << uint(v)
		if uncomputed&bit == 0 {
			s.chainDP[v] = 0
			continue
		}
		d := int32(0)
		pm := s.predMask[v] & uncomputed
		for pm != 0 {
			u := trailingZeros(pm)
			pm &= pm - 1
			if s.chainDP[u] > d {
				d = s.chainDP[u]
			}
		}
		d++
		s.chainDP[v] = d
		if d > best {
			best = d
		}
	}
	return int(best)
}

// RootLowerBound evaluates the selected heuristic at the empty start
// configuration — an admissible lower bound on OPT obtained without
// expanding a single state. Experiment tables use it to tighten the
// lower end of anytime brackets. For instances beyond the 62-node
// packed-state limit it falls back to the equivalent structural bound
// from the bounds package (identical at the root by construction).
func RootLowerBound(in *pebble.Instance, mode HeuristicMode) int64 {
	n := in.Graph.N()
	if n == 0 {
		return 0
	}
	if n > 62 {
		if mode == HeuristicFloor {
			return bounds.Lemma1Lower(in)
		}
		return bounds.StructuralLower(in)
	}
	s := &solver{in: in, n: n, cfg: Config{Heuristic: mode}}
	s.initDerived()
	start := make([]uint64, stateWords(in.K))
	h := s.h(start)
	if h < 0 {
		return 0 // unreachable: the empty start has no obligations yet
	}
	return h
}
