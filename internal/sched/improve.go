package sched

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/pebble"
)

// Improve applies cost-reducing peephole passes to a valid strategy until
// a fixpoint, re-validating the result (the returned strategy always
// passes pebble.Replay and its cost never exceeds the input's):
//
//  1. no-op elision: reads of already-red nodes, writes of already-blue
//     nodes and recomputations of already-red nodes are dropped.
//  2. dead-write elision: writes whose blue pebble is never read later
//     and is not needed for terminal sink coverage are dropped.
//  3. parallel packing: adjacent moves of the same costed kind touching
//     disjoint processor sets merge into one move, halving their cost —
//     the transformation that turns sequential single-action I/O into the
//     parallel moves the MPP cost function rewards.
//
// Improve returns the improved strategy with its validated report.
func Improve(in *pebble.Instance, s *pebble.Strategy) (*pebble.Strategy, *pebble.Report, error) {
	cur := s
	curRep, err := pebble.Replay(in, cur)
	if err != nil {
		return nil, nil, fmt.Errorf("sched: Improve input invalid: %w", err)
	}
	for {
		next := elideNoOps(in, cur)
		next = elideDeadWrites(in, next)
		next = packParallel(in, next)
		next = repack(in, next)
		rep, err := pebble.Replay(in, next)
		if err != nil {
			// A pass produced an invalid strategy: a bug; fail loudly in
			// tests, but never hand the caller a broken strategy.
			return nil, nil, fmt.Errorf("sched: Improve pass broke the strategy: %w", err)
		}
		better := rep.Cost < curRep.Cost ||
			(rep.Cost == curRep.Cost && next.Len() < cur.Len())
		if !better {
			return cur, curRep, nil
		}
		cur, curRep = next, rep
	}
}

// elideNoOps walks the strategy tracking the configuration and drops
// actions with no effect (read of red, write of blue, compute of red on
// the same shade); moves left with no actions disappear.
func elideNoOps(in *pebble.Instance, s *pebble.Strategy) *pebble.Strategy {
	n, k := in.Graph.N(), in.K
	cfg := pebble.NewConfig(n, k)
	out := &pebble.Strategy{}
	var kept []pebble.Action
	for i := range s.Len() {
		m := s.Move(i)
		kept = kept[:0]
		for _, a := range m.Actions {
			switch m.Kind {
			case pebble.OpRead, pebble.OpCompute:
				if cfg.Red[a.Proc].Contains(int(a.Node)) {
					continue // already red on this shade
				}
				cfg.Red[a.Proc].Add(int(a.Node))
			case pebble.OpWrite:
				if cfg.Blue.Contains(int(a.Node)) {
					continue // already blue
				}
				cfg.Blue.Add(int(a.Node))
			case pebble.OpDelete:
				if a.Proc == pebble.BlueProc {
					cfg.Blue.Remove(int(a.Node))
				} else {
					cfg.Red[a.Proc].Remove(int(a.Node))
				}
			}
			kept = append(kept, a)
		}
		if len(kept) > 0 {
			out.Append(pebble.Move{Kind: m.Kind, Actions: kept})
		}
	}
	return out
}

// elideDeadWrites drops write actions whose node is never read afterwards
// and is not a sink relying on the blue pebble for terminal coverage.
// Conservative: if any blue deletion of the node appears anywhere, the
// write is kept.
func elideDeadWrites(in *pebble.Instance, s *pebble.Strategy) *pebble.Strategy {
	n := in.Graph.N()
	blueDeleted := bitset.New(n)
	for i := range s.Len() {
		if m := s.Move(i); m.Kind == pebble.OpDelete {
			for _, a := range m.Actions {
				if a.Proc == pebble.BlueProc {
					blueDeleted.Add(int(a.Node))
				}
			}
		}
	}
	// lastRead[v]: index of the last read of v; -1 if none.
	lastRead := make([]int, n)
	for i := range lastRead {
		lastRead[i] = -1
	}
	for i := range s.Len() {
		if m := s.Move(i); m.Kind == pebble.OpRead {
			for _, a := range m.Actions {
				lastRead[a.Node] = i
			}
		}
	}
	// Sinks that end red on some shade do not need their blue pebble.
	endRed := endRedSet(in, s)
	isSink := bitset.New(n)
	for _, v := range in.Graph.Sinks() {
		isSink.Add(int(v))
	}
	out := &pebble.Strategy{}
	var kept []pebble.Action
	for i := range s.Len() {
		m := s.Move(i)
		if m.Kind != pebble.OpWrite {
			out.Append(m)
			continue
		}
		kept = kept[:0]
		for _, a := range m.Actions {
			v := int(a.Node)
			needed := lastRead[v] > i || blueDeleted.Contains(v) ||
				(isSink.Contains(v) && !endRed.Contains(v))
			if needed {
				kept = append(kept, a)
			}
		}
		if len(kept) > 0 {
			out.Append(pebble.Move{Kind: m.Kind, Actions: kept})
		}
	}
	return out
}

// endRedSet returns the nodes holding a red pebble (any shade) at the end
// of the strategy.
func endRedSet(in *pebble.Instance, s *pebble.Strategy) *bitset.Set {
	n, k := in.Graph.N(), in.K
	red := make([]*bitset.Set, k)
	for j := range red {
		red[j] = bitset.New(n)
	}
	for i := range s.Len() {
		switch m := s.Move(i); m.Kind {
		case pebble.OpRead, pebble.OpCompute:
			for _, a := range m.Actions {
				red[a.Proc].Add(int(a.Node))
			}
		case pebble.OpDelete:
			for _, a := range m.Actions {
				if a.Proc != pebble.BlueProc {
					red[a.Proc].Remove(int(a.Node))
				}
			}
		}
	}
	out := bitset.New(n)
	for j := range red {
		out.UnionWith(red[j])
	}
	return out
}

// packParallel merges moves of the same costed kind into earlier moves
// when only free Delete moves lie between them and the merge provably
// preserves validity:
//
//   - the merged action's processor does not already act in the target
//     move (injective selection);
//   - no intervening delete touches a pebble the action needs or creates
//     (only deletes can occur in the window, so enabling state at the
//     earlier position is a superset of the current one otherwise);
//   - the processor's red count at the earlier position plus the new
//     pebble still respects r (reads/computes add a pebble that now
//     lives through the window).
func packParallel(in *pebble.Instance, s *pebble.Strategy) *pebble.Strategy {
	// The output moves stay a slice until the end, so a merge can still
	// extend an earlier move's actions.
	var out []pebble.Move
	red := make([]int, in.K) // current red counts per processor

	lastCosted := -1 // index in out of the last costed move
	// Window trackers since the last costed move (only deletes occur in
	// the window):
	deletedSince := make([]int, in.K)    // red deletions per proc
	deletedRed := map[[2]int32]bool{}    // (proc, node) red deletions
	deletedBlue := map[dag.NodeID]bool{} // blue deletions
	resetWindow := func() {
		for p := range deletedSince {
			deletedSince[p] = 0
		}
		deletedRed = map[[2]int32]bool{}
		deletedBlue = map[dag.NodeID]bool{}
	}
	applyCounts := func(m pebble.Move) {
		switch m.Kind {
		case pebble.OpRead, pebble.OpCompute:
			for _, a := range m.Actions {
				red[a.Proc]++
			}
		case pebble.OpDelete:
			for _, a := range m.Actions {
				if a.Proc != pebble.BlueProc {
					red[a.Proc]--
				}
			}
		}
	}

	for i := range s.Len() {
		m := s.Move(i)
		if m.Kind == pebble.OpDelete {
			for _, a := range m.Actions {
				if a.Proc == pebble.BlueProc {
					deletedBlue[a.Node] = true
				} else {
					deletedSince[a.Proc]++
					deletedRed[[2]int32{int32(a.Proc), int32(a.Node)}] = true
				}
			}
			applyCounts(m)
			out = append(out, m)
			continue
		}
		merged := false
		if lastCosted >= 0 && out[lastCosted].Kind == m.Kind {
			target := &out[lastCosted]
			ok := len(target.Actions)+len(m.Actions) <= in.K
			procs := map[int32]bool{}
			nodes := map[dag.NodeID]bool{}
			for _, a := range target.Actions {
				procs[a.Proc] = true
				nodes[a.Node] = true
			}
			for _, a := range m.Actions {
				if !ok {
					break
				}
				if procs[a.Proc] {
					ok = false
					break
				}
				switch m.Kind {
				case pebble.OpCompute:
					// Avoid creating recomputation inside one move, and
					// make sure neither the output slot nor any input was
					// deleted in the window; capacity at the earlier
					// position must admit the extra pebble.
					if nodes[a.Node] || deletedRed[[2]int32{int32(a.Proc), int32(a.Node)}] {
						ok = false
						break
					}
					for _, u := range in.Graph.Pred(a.Node) {
						if deletedRed[[2]int32{int32(a.Proc), int32(u)}] {
							ok = false
							break
						}
					}
					if red[a.Proc]+deletedSince[a.Proc]+1 > in.R {
						ok = false
					}
				case pebble.OpRead:
					if deletedBlue[a.Node] || deletedRed[[2]int32{int32(a.Proc), int32(a.Node)}] {
						ok = false
						break
					}
					if red[a.Proc]+deletedSince[a.Proc]+1 > in.R {
						ok = false
					}
				case pebble.OpWrite:
					// Needs (proc, node) red at the earlier position: reds
					// only shrink through the window, so being red now
					// suffices. An intervening blue deletion of the node
					// would erase the relocated write's effect.
					if deletedBlue[a.Node] {
						ok = false
					}
				}
			}
			if ok {
				// target.Actions may alias s: its capacity ends at its
				// length, so this append copies.
				target.Actions = append(target.Actions, m.Actions...)
				applyCounts(m)
				merged = true
			}
		}
		if !merged {
			applyCounts(m)
			out = append(out, m)
			lastCosted = len(out) - 1
			resetWindow()
		}
	}
	st := &pebble.Strategy{}
	st.Append(out...)
	return st
}
