package pebble

import (
	"errors"
	"fmt"

	"repro/internal/dag"
)

// RuleError reports a strategy that violates a transition rule or the
// memory bound. It pinpoints the offending move and action.
type RuleError struct {
	MoveIndex   int
	ActionIndex int // -1 when the violation is move-level (e.g. memory bound)
	Move        Move
	Reason      string
}

func (e *RuleError) Error() string {
	if e.ActionIndex < 0 {
		return fmt.Sprintf("pebble: move %d (%s): %s", e.MoveIndex, e.Move, e.Reason)
	}
	return fmt.Sprintf("pebble: move %d (%s), action %d: %s",
		e.MoveIndex, e.Move, e.ActionIndex, e.Reason)
}

// ErrNotTerminal is returned (wrapped) when a strategy is rule-legal but
// ends before every sink is pebbled.
var ErrNotTerminal = errors.New("pebble: final configuration is not terminal")

// Report summarizes a validated strategy.
type Report struct {
	Cost        int64 // total cost Σ c(tᵢ)
	IOCost      int64 // cost of Write+Read moves
	ComputeCost int64 // cost of Compute moves

	IOMoves        int // number of Write+Read moves (parallel steps)
	IOActions      int // total I/O operations summed over processors
	ComputeMoves   int // number of Compute moves (parallel steps)
	ComputeActions int // nodes computed, counting recomputations
	DeleteMoves    int

	Recomputations int // ComputeActions − distinct nodes computed

	PerProcComputed []int // nodes computed by each processor
	PerProcIO       []int // I/O actions performed by each processor
	MaxRedInUse     []int // peak |R^j| per processor

	Final *Config // final configuration (owned by the caller)
}

// Surplus returns the surplus cost C − n/k of Definition 1.
func (r *Report) Surplus(n, k int) float64 {
	return float64(r.Cost) - float64(n)/float64(k)
}

// Replay validates the strategy move by move against the instance and
// returns the cost report. The initial configuration is empty; the final
// configuration must be terminal (every sink pebbled). Use ReplayPartial
// to validate a prefix without the terminal check.
func Replay(in *Instance, s *Strategy) (*Report, error) {
	rep, cfg, err := replay(in, s)
	if err != nil {
		return nil, err
	}
	if !cfg.Terminal(in.Graph) {
		return nil, fmt.Errorf("%w: %d of %d sinks pebbled",
			ErrNotTerminal, countPebbledSinks(in.Graph, cfg), len(in.Graph.Sinks()))
	}
	rep.Final = cfg
	return rep, nil
}

// ReplayPartial validates the strategy without requiring the final
// configuration to be terminal, returning the report and final
// configuration. Useful for composing gadget strategies.
func ReplayPartial(in *Instance, s *Strategy) (*Report, *Config, error) {
	rep, cfg, err := replay(in, s)
	if err != nil {
		return nil, nil, err
	}
	rep.Final = cfg
	return rep, cfg, nil
}

func countPebbledSinks(g *dag.Graph, c *Config) int {
	n := 0
	for _, s := range g.Sinks() {
		if c.HasAnyPebble(s) {
			n++
		}
	}
	return n
}

func replay(in *Instance, s *Strategy) (*Report, *Config, error) {
	n := in.Graph.N()
	k := in.K
	cfg := NewConfig(n, k)
	rep := &Report{
		PerProcComputed: make([]int, k),
		PerProcIO:       make([]int, k),
		MaxRedInUse:     make([]int, k),
	}
	var computed []bool
	computed = make([]bool, n)
	// redCount[j] mirrors cfg.Red[j].Count() incrementally: the memory-bound
	// check below runs after every move, and a popcount there would make
	// validation quadratic on million-move strategies.
	redCount := make([]int, k)
	procSeen := make([]int, k) // move index +1 when last used; enforces injective selections
	for i := range s.Len() {
		m := s.Move(i)
		if len(m.Actions) == 0 {
			return nil, nil, &RuleError{MoveIndex: i, ActionIndex: -1, Move: m, Reason: "empty move"}
		}
		if m.Kind != OpDelete {
			if len(m.Actions) > k {
				return nil, nil, &RuleError{MoveIndex: i, ActionIndex: -1, Move: m,
					Reason: fmt.Sprintf("%d actions exceed k=%d processors", len(m.Actions), k)}
			}
			for ai, a := range m.Actions {
				if a.Proc < 0 || int(a.Proc) >= k {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("processor %d out of range [0,%d)", a.Proc, k)}
				}
				if procSeen[a.Proc] == i+1 {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("processor %d selected twice (selection must be injective)", a.Proc)}
				}
				procSeen[a.Proc] = i + 1
				if a.Node < 0 || int(a.Node) >= n {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("node %d out of range [0,%d)", a.Node, n)}
				}
			}
		}

		switch m.Kind {
		case OpWrite:
			// Check all preconditions against the pre-move configuration,
			// then apply: simultaneous semantics.
			for ai, a := range m.Actions {
				if !cfg.Red[a.Proc].Contains(int(a.Node)) {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("node %d has no shade-%d red pebble to write", a.Node, a.Proc)}
				}
			}
			for _, a := range m.Actions {
				cfg.Blue.Add(int(a.Node))
				rep.PerProcIO[a.Proc]++
			}
			rep.IOMoves++
			rep.IOActions += len(m.Actions)
			rep.IOCost += int64(in.G)

		case OpRead:
			for ai, a := range m.Actions {
				if !cfg.Blue.Contains(int(a.Node)) {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("node %d has no blue pebble to read", a.Node)}
				}
			}
			for _, a := range m.Actions {
				if cfg.Red[a.Proc].TestAndSet(int(a.Node)) {
					redCount[a.Proc]++
				}
				rep.PerProcIO[a.Proc]++
			}
			rep.IOMoves++
			rep.IOActions += len(m.Actions)
			rep.IOCost += int64(in.G)

		case OpCompute:
			for ai, a := range m.Actions {
				for _, u := range in.Graph.Pred(a.Node) {
					if !cfg.Red[a.Proc].Contains(int(u)) {
						return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
							Reason: fmt.Sprintf("predecessor %d of node %d lacks a shade-%d red pebble", u, a.Node, a.Proc)}
					}
				}
				if in.OneShot && computed[a.Node] {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("node %d recomputed in one-shot mode", a.Node)}
				}
			}
			for ai, a := range m.Actions {
				if computed[a.Node] {
					// The check above saw every node uncomputed before
					// this move, so in one-shot mode a hit here is a
					// second processor computing the same node.
					if in.OneShot {
						return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
							Reason: fmt.Sprintf("node %d computed twice in one one-shot move", a.Node)}
					}
					rep.Recomputations++
				}
				if cfg.Red[a.Proc].TestAndSet(int(a.Node)) {
					redCount[a.Proc]++
				}
				rep.PerProcComputed[a.Proc]++
				computed[a.Node] = true
			}
			rep.ComputeMoves++
			rep.ComputeActions += len(m.Actions)
			rep.ComputeCost += int64(in.ComputeCost)

		case OpDelete:
			for ai, a := range m.Actions {
				if a.Node < 0 || int(a.Node) >= n {
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("node %d out of range [0,%d)", a.Node, n)}
				}
				switch {
				case a.Proc == BlueProc:
					if !cfg.Blue.Contains(int(a.Node)) {
						return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
							Reason: fmt.Sprintf("node %d has no blue pebble to delete", a.Node)}
					}
					cfg.Blue.Remove(int(a.Node))
				case a.Proc >= 0 && int(a.Proc) < k:
					if !cfg.Red[a.Proc].Contains(int(a.Node)) {
						return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
							Reason: fmt.Sprintf("node %d has no shade-%d red pebble to delete", a.Node, a.Proc)}
					}
					cfg.Red[a.Proc].Remove(int(a.Node))
					redCount[a.Proc]--
				default:
					return nil, nil, &RuleError{MoveIndex: i, ActionIndex: ai, Move: m,
						Reason: fmt.Sprintf("processor %d out of range", a.Proc)}
				}
			}
			rep.DeleteMoves++

		default:
			return nil, nil, &RuleError{MoveIndex: i, ActionIndex: -1, Move: m,
				Reason: fmt.Sprintf("unknown move kind %d", m.Kind)}
		}

		// Memory bound: the post-move configuration must be valid.
		for j := 0; j < k; j++ {
			c := redCount[j]
			if c > rep.MaxRedInUse[j] {
				rep.MaxRedInUse[j] = c
			}
			if c > in.R {
				return nil, nil, &RuleError{MoveIndex: i, ActionIndex: -1, Move: m,
					Reason: fmt.Sprintf("processor %d exceeds memory bound: %d red pebbles > r=%d", j, c, in.R)}
			}
		}
	}
	rep.Cost = rep.IOCost + rep.ComputeCost
	return rep, cfg, nil
}

// Sequentialize converts a k-processor strategy into an equivalent
// 1-processor strategy over fast memory k·r, implementing the simulation
// of Lemma 5: each parallel move becomes ≤ k sequential single-action
// moves, and shade-j red pebbles map into the single processor's memory.
// The resulting strategy is valid for an instance with K=1, R=k·r and the
// same g (pebbles of different former shades on the same node collapse —
// the simulation only ever needs one).
func Sequentialize(in *Instance, s *Strategy) *Strategy {
	// The single processor holds the multiset union of all shades. A node
	// may hold red pebbles of several shades; the sequential processor
	// tracks each (shade, node) slot separately by keeping its own shadow
	// occupancy count so deletions free the right amount of memory. Since
	// classic SPP sets cannot express multiplicity, we emulate: keep the
	// red pebble while any shade holds it.
	n := in.Graph.N()
	mult := make([]int, n)
	out := &Strategy{}
	for i := range s.Len() {
		m := s.Move(i)
		switch m.Kind {
		case OpWrite:
			for _, a := range m.Actions {
				out.Append(Write(At(0, a.Node)))
			}
		case OpRead:
			for _, a := range m.Actions {
				if mult[a.Node] == 0 {
					out.Append(Read(At(0, a.Node)))
				}
				mult[a.Node]++
			}
		case OpCompute:
			for _, a := range m.Actions {
				if mult[a.Node] == 0 {
					out.Append(Compute(At(0, a.Node)))
				}
				mult[a.Node]++
			}
		case OpDelete:
			for _, a := range m.Actions {
				if a.Proc == BlueProc {
					out.Append(Delete(Blue(a.Node)))
					continue
				}
				mult[a.Node]--
				if mult[a.Node] == 0 {
					out.Append(Delete(At(0, a.Node)))
				}
			}
		}
	}
	return out
}
