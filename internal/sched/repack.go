package sched

import (
	"repro/internal/dag"
	"repro/internal/pebble"
)

// repack reschedules a strategy's actions into maximally parallel moves.
// It preserves (a) each processor's own action order and (b) the
// blue-pebble data dependencies (every read of v stays after the write
// that feeds it). Any interleaving with those two properties is valid:
//
//   - per-processor red-pebble counts depend only on that processor's own
//     action prefix, so every memory bound still holds;
//   - compute and write preconditions only involve the acting processor's
//     shade, which evolves in the original order;
//   - read preconditions (blue pebbles) are protected by the write→read
//     edges, and blue pebbles only accumulate.
//
// Strategies that delete blue pebbles are returned unchanged (the
// reordering analysis above would need per-node barriers; no scheduler in
// this repository emits blue deletions).
//
// The pass turns sequential schedules — e.g. Baseline's one-action moves
// on round-robin processors — into parallel ones, dividing I/O and
// compute cost by up to k.
func repack(in *pebble.Instance, s *pebble.Strategy) *pebble.Strategy {
	k := in.K
	type action struct {
		kind pebble.OpKind
		a    pebble.Action
		dep  int // index into acts of the write this read depends on; -1 otherwise
		done bool
	}
	var acts []action
	perProc := make([][]int, k) // indices into acts, in program order
	lastWrite := map[dag.NodeID]int{}
	for i := range s.Len() {
		m := s.Move(i)
		for _, act := range m.Actions {
			if m.Kind == pebble.OpDelete && act.Proc == pebble.BlueProc {
				return s // blue deletions: bail out, keep the original
			}
			idx := len(acts)
			dep := -1
			if m.Kind == pebble.OpRead {
				if w, ok := lastWrite[act.Node]; ok {
					dep = w
				}
			}
			acts = append(acts, action{kind: m.Kind, a: act, dep: dep})
			if m.Kind == pebble.OpWrite {
				lastWrite[act.Node] = idx
			}
			perProc[act.Proc] = append(perProc[act.Proc], idx)
		}
	}

	ptr := make([]int, k)
	out := &pebble.Strategy{}
	remaining := len(acts)

	// ready returns the index of processor p's next action if its blue
	// dependency (when any) is satisfied, else -1.
	ready := func(p int) int {
		if ptr[p] >= len(perProc[p]) {
			return -1
		}
		idx := perProc[p][ptr[p]]
		if d := acts[idx].dep; d >= 0 && !acts[d].done {
			return -1
		}
		return idx
	}
	complete := func(idx, p int) {
		acts[idx].done = true
		ptr[p]++
		remaining--
	}

	for remaining > 0 {
		progress := false
		// Free deletes first, repeatedly (they may unblock nothing but
		// cost nothing and keep per-proc order flowing).
		for {
			var dels []pebble.Action
			for p := 0; p < k; p++ {
				for {
					idx := ready(p)
					if idx < 0 || acts[idx].kind != pebble.OpDelete {
						break
					}
					dels = append(dels, acts[idx].a)
					complete(idx, p)
				}
			}
			if len(dels) == 0 {
				break
			}
			out.Append(pebble.Delete(dels...))
			progress = true
		}
		// One move per costed kind per round; writes before reads so a
		// same-round write→read pair still observes its dependency
		// through separate sequential moves.
		for _, kind := range []pebble.OpKind{pebble.OpWrite, pebble.OpRead, pebble.OpCompute} {
			var batch []pebble.Action
			var idxs []int
			nodes := map[dag.NodeID]bool{}
			for p := 0; p < k; p++ {
				idx := ready(p)
				if idx < 0 || acts[idx].kind != kind {
					continue
				}
				if kind == pebble.OpCompute && nodes[acts[idx].a.Node] {
					continue // defer same-node co-computation to the next round
				}
				nodes[acts[idx].a.Node] = true
				batch = append(batch, acts[idx].a)
				idxs = append(idxs, idx)
			}
			for bi, idx := range idxs {
				complete(idx, int(batch[bi].Proc))
			}
			if len(batch) > 0 {
				out.Append(pebble.Move{Kind: kind, Actions: batch})
				progress = true
			}
		}
		if !progress {
			// Should be impossible (original order witnesses feasibility);
			// fall back to the input rather than loop forever.
			return s
		}
	}
	return out
}
