package pebble

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dag"
)

// OpKind identifies the transition rule a Move applies.
type OpKind uint8

const (
	// OpWrite is rule (R1-M): red → blue (store to slow memory), cost g.
	OpWrite OpKind = iota
	// OpRead is rule (R2-M): blue → red (load from slow memory), cost g.
	OpRead
	// OpCompute is rule (R3-M): place a red pebble on a node whose
	// predecessors all carry same-shade red pebbles, cost ComputeCost.
	OpCompute
	// OpDelete is rule (R4-M): remove pebbles, free.
	OpDelete
)

// String returns the rule mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpCompute:
		return "compute"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// BlueProc is the Proc value in a Delete action that removes a blue
// pebble rather than a red one.
const BlueProc = -1

// Action is one processor's part of a Move: processor Proc operates on
// node Node. In a Delete move, Proc == BlueProc removes the blue pebble on
// Node instead of a red one. An Action is 8 bytes; NewInstance bounds k
// by math.MaxInt32, so every processor index fits in Proc.
type Action struct {
	Proc int32
	Node dag.NodeID
}

// Move applies one transition rule via a shaded selection of processors:
// all Actions execute simultaneously and the whole move incurs the rule's
// cost once. In Write, Read and Compute moves each processor may appear at
// most once (the selection is injective); Delete moves are unrestricted
// since they are free.
type Move struct {
	Kind    OpKind
	Actions []Action
}

// Write builds an (R1-M) move storing each (proc, node) pair's red pebble
// to slow memory.
func Write(actions ...Action) Move { return Move{Kind: OpWrite, Actions: actions} }

// Read builds an (R2-M) move loading a blue pebble into each listed
// processor's fast memory.
func Read(actions ...Action) Move { return Move{Kind: OpRead, Actions: actions} }

// Compute builds an (R3-M) move computing each (proc, node) pair.
func Compute(actions ...Action) Move { return Move{Kind: OpCompute, Actions: actions} }

// Delete builds an (R4-M) move removing the listed pebbles.
func Delete(actions ...Action) Move { return Move{Kind: OpDelete, Actions: actions} }

// At is shorthand for Action{Proc: p, Node: v}.
func At(p int, v dag.NodeID) Action { return Action{Proc: int32(p), Node: v} }

// Blue is shorthand for a delete-blue action on v.
func Blue(v dag.NodeID) Action { return Action{Proc: BlueProc, Node: v} }

// Cost returns the cost of the move under parameters p.
func (m Move) Cost(p Params) int64 {
	switch m.Kind {
	case OpWrite, OpRead:
		return int64(p.G)
	case OpCompute:
		return int64(p.ComputeCost)
	default:
		return 0
	}
}

// String renders the move compactly, e.g. "compute[p0:v3 p1:v7]".
func (m Move) String() string {
	var b strings.Builder
	b.WriteString(m.Kind.String())
	b.WriteByte('[')
	for i, a := range m.Actions {
		if i > 0 {
			b.WriteByte(' ')
		}
		if a.Proc == BlueProc {
			fmt.Fprintf(&b, "blue:v%d", a.Node)
		} else {
			fmt.Fprintf(&b, "p%d:v%d", a.Proc, a.Node)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Strategy is a pebbling strategy: the sequence of moves applied to the
// initial (empty) configuration.
//
// It is stored as three pointer-free columns: kinds[i] is move i's rule,
// and move i's actions are acts[ends[i-1]:ends[i]], with ends[-1] taken
// as 0. A move thus costs 5 bytes plus 8 per action, in memory the
// garbage collector never scans, and a strategy is three backing arrays
// however many moves it holds. It holds at most math.MaxInt32 actions.
//
// Append copies the actions it is given, so a caller may reuse its action
// slices as scratch. Move(i) returns a view: its Actions alias the
// strategy and are read-only. Their capacity equals their length, so an
// append to them copies instead of overwriting move i+1.
type Strategy struct {
	kinds []OpKind
	ends  []int32
	acts  []Action
}

// Append adds moves to the strategy, copying their actions.
func (s *Strategy) Append(moves ...Move) {
	for _, m := range moves {
		s.kinds = append(s.kinds, m.Kind)
		s.acts = append(s.acts, m.Actions...)
		s.ends = append(s.ends, int32(len(s.acts)))
	}
}

// Len returns the number of moves.
func (s *Strategy) Len() int { return len(s.kinds) }

// Move returns move i, whose Actions alias the strategy (see the type
// comment): read them, do not write them.
func (s *Strategy) Move(i int) Move {
	var start int32
	if i > 0 {
		start = s.ends[i-1]
	}
	end := s.ends[i]
	return Move{Kind: s.kinds[i], Actions: s.acts[start:end:end]}
}

// Clone returns a deep copy of the strategy: appending to the copy cannot
// affect s (and vice versa). A nil strategy clones to nil. The solve
// cache serves clones so a cached witness is never aliased by two
// callers.
func (s *Strategy) Clone() *Strategy {
	if s == nil {
		return nil
	}
	return &Strategy{kinds: slices.Clone(s.kinds), ends: slices.Clone(s.ends), acts: slices.Clone(s.acts)}
}

// String renders up to 40 moves, eliding the middle of long strategies.
func (s *Strategy) String() string {
	const limit = 40
	var b strings.Builder
	n := s.Len()
	fmt.Fprintf(&b, "strategy(%d moves)", n)
	if n == 0 {
		return b.String()
	}
	b.WriteString(": ")
	if n <= limit {
		for i := range n {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(s.Move(i).String())
		}
		return b.String()
	}
	for i := 0; i < limit/2; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(s.Move(i).String())
	}
	fmt.Fprintf(&b, "; … %d elided …; ", n-limit)
	for i := n - limit/2; i < n; i++ {
		b.WriteString(s.Move(i).String())
		if i != n-1 {
			b.WriteString("; ")
		}
	}
	return b.String()
}
