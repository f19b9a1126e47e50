package pebble

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// strategyOf returns a strategy holding moves.
func strategyOf(moves ...Move) *Strategy {
	s := &Strategy{}
	s.Append(moves...)
	return s
}

// randomLegalMoves returns a seeded stream of n moves that replays on in,
// whose graph has no edges (every compute is legal) and whose r admits
// every node at once. It holds every kind, with 1..k actions on distinct
// processors; deletes mix red and BlueProc actions. Each move's actions
// are freshly allocated.
func randomLegalMoves(rng *rand.Rand, in *Instance, n int) []Move {
	nodes, k := in.N(), in.K
	cfg := NewConfig(nodes, k)
	var moves []Move
	for len(moves) < n {
		kind := OpKind(rng.Intn(4))
		var acts []Action
		for _, p := range rng.Perm(k)[:1+rng.Intn(k)] {
			v := rng.Intn(nodes)
			if kind == OpDelete && rng.Intn(2) == 0 {
				p = BlueProc
			}
			a := At(p, dag.NodeID(v))
			switch kind {
			case OpWrite:
				if !cfg.Red[p].Contains(v) {
					continue
				}
			case OpRead:
				if !cfg.Blue.Contains(v) {
					continue
				}
			case OpDelete:
				present := cfg.Blue.Contains(v)
				if p != BlueProc {
					present = cfg.Red[p].Contains(v)
				}
				if !present || slices.Contains(acts, a) {
					continue
				}
			}
			acts = append(acts, a)
		}
		if len(acts) == 0 {
			continue
		}
		for _, a := range acts {
			v := int(a.Node)
			switch {
			case kind == OpWrite:
				cfg.Blue.Add(v)
			case kind == OpDelete && a.Proc == BlueProc:
				cfg.Blue.Remove(v)
			case kind == OpDelete:
				cfg.Red[a.Proc].Remove(v)
			default:
				cfg.Red[a.Proc].Add(v)
			}
		}
		moves = append(moves, Move{Kind: kind, Actions: acts})
	}
	return moves
}

// holds fails t unless s holds exactly moves.
func holds(t *testing.T, what string, s *Strategy, moves []Move) {
	t.Helper()
	if s.Len() != len(moves) {
		t.Fatalf("%s: %d moves, want %d", what, s.Len(), len(moves))
	}
	for i, m := range moves {
		if got := s.Move(i); got.Kind != m.Kind || !slices.Equal(got.Actions, m.Actions) {
			t.Fatalf("%s: move %d = %v, want %v", what, i, got, m)
		}
	}
}

// TestStrategyStorageRoundTrip: a seeded move stream stored by Append one
// move at a time, by Append in batches and through a Builder comes back
// unchanged from Len/Move, from Clone (deep in both directions), from
// WriteJSON → ReadJSON and from gob.
func TestStrategyStorageRoundTrip(t *testing.T) {
	in := MustInstance(gen.IndependentChains(12, 1), MPP(3, 12, 2))
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		moves := randomLegalMoves(rng, in, 1+rng.Intn(80))

		one := &Strategy{}
		for _, m := range moves {
			one.Append(m)
		}
		batched := &Strategy{}
		for i := 0; i < len(moves); {
			j := min(len(moves), i+1+rng.Intn(6))
			batched.Append(moves[i:j]...)
			i = j
		}
		b := NewBuilder(in)
		for _, m := range moves {
			switch m.Kind {
			case OpWrite:
				b.Write(m.Actions...)
			case OpRead:
				b.Read(m.Actions...)
			case OpCompute:
				b.ComputeParallel(m.Actions...)
			case OpDelete:
				b.Delete(m.Actions...)
			}
		}

		for _, tc := range []struct {
			name string
			s    *Strategy
		}{{"one at a time", one}, {"batched", batched}, {"builder", b.Strategy()}} {
			s := tc.s
			holds(t, tc.name, s, moves)
			if _, _, err := ReplayPartial(in, s); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, tc.name, err)
			}

			// The tests write through Move(i).Actions, which callers must
			// not, only to show that the copies share no storage.
			c := s.Clone()
			if !reflect.DeepEqual(c, s) {
				t.Fatalf("seed %d, %s: Clone differs", seed, tc.name)
			}
			c.Move(0).Actions[0].Node += 100
			c.Append(Compute(At(0, 0)))
			holds(t, tc.name+" after the clone changed", s, moves)
			c = s.Clone()
			s.Move(0).Actions[0].Node += 100
			s.Append(Compute(At(0, 0)))
			holds(t, tc.name+" clone after the original changed", c, moves)
			s = c

			var js bytes.Buffer
			if err := s.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			fromJSON, err := ReadJSON(&js)
			if err != nil {
				t.Fatalf("seed %d, %s: ReadJSON: %v", seed, tc.name, err)
			}
			if !reflect.DeepEqual(fromJSON, s) {
				t.Fatalf("seed %d, %s: JSON round trip differs", seed, tc.name)
			}

			var gb bytes.Buffer
			if err := gob.NewEncoder(&gb).Encode(s); err != nil {
				t.Fatalf("seed %d, %s: gob encode: %v", seed, tc.name, err)
			}
			fromGob := new(Strategy)
			if err := gob.NewDecoder(&gb).Decode(fromGob); err != nil {
				t.Fatalf("seed %d, %s: gob decode: %v", seed, tc.name, err)
			}
			if !reflect.DeepEqual(fromGob, s) {
				t.Fatalf("seed %d, %s: gob round trip differs", seed, tc.name)
			}
		}
	}
}

// TestMoveActionsAppendCopies: Move(i).Actions ends at its capacity, so an
// append to it cannot overwrite move i+1 in the shared column.
func TestMoveActionsAppendCopies(t *testing.T) {
	s := strategyOf(Compute(At(0, 1)), Compute(At(1, 2)))
	grown := append(s.Move(0).Actions, At(2, 3))
	if got := s.Move(1).Actions; !slices.Equal(got, []Action{At(1, 2)}) {
		t.Fatalf("move 1 = %v after an append to move 0's actions", got)
	}
	if !slices.Equal(grown, []Action{At(0, 1), At(2, 3)}) {
		t.Fatalf("grown = %v", grown)
	}
}

// TestBuilderCopiesScratch: a Builder fed one reused scratch slice keeps
// every earlier move as it was issued.
func TestBuilderCopiesScratch(t *testing.T) {
	const n = 6
	b := NewBuilder(MustInstance(gen.IndependentChains(n, 1), MPP(2, n, 1)))
	scratch := make([]Action, 1)
	for v := range n {
		scratch[0] = At(v%2, dag.NodeID(v))
		b.ComputeParallel(scratch...)
	}
	s := b.Strategy()
	for v := range n {
		if got := s.Move(v).Actions; !slices.Equal(got, []Action{At(v%2, dag.NodeID(v))}) {
			t.Fatalf("move %d = %v after the scratch slice was reused", v, got)
		}
	}
}
