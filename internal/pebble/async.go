package pebble

// AsyncMakespan evaluates a strategy under the asynchronous relaxation
// discussed in Section 3.3: instead of globally synchronous moves, each
// processor executes its own actions back to back on a private timeline
// (an I/O action occupies its processor for G time units, a compute
// action for ComputeCost), subject to data availability:
//
//   - a read of v cannot start before some write of v has finished,
//   - a compute of v on p cannot start before all the events that made
//     v's inputs red on p have finished.
//
// Deletions are free and instantaneous. The result is the makespan — the
// moment the last action finishes. For any valid strategy the makespan is
// at most the synchronous cost (the relaxation only removes waiting); the
// paper notes the improvement from asynchrony is bounded by a factor 2
// for optimal schedules.
func AsyncMakespan(in *Instance, s *Strategy) int64 {
	n := in.Graph.N()
	k := in.K
	avail := make([]int64, k)   // processor timelines
	blueAt := make([]int64, n)  // when the blue pebble became available
	hasBlue := make([]bool, n)  // whether v has ever been written
	redAt := make([][]int64, k) // when v last became red on p
	for p := range redAt {
		redAt[p] = make([]int64, n)
		for i := range redAt[p] {
			redAt[p][i] = -1
		}
	}
	var makespan int64
	gCost, cCost := int64(in.G), int64(in.ComputeCost)

	for i := range s.Len() {
		m := s.Move(i)
		switch m.Kind {
		case OpWrite:
			for _, a := range m.Actions {
				start := max(avail[a.Proc], redAt[a.Proc][a.Node])
				fin := start + gCost
				avail[a.Proc] = fin
				if !hasBlue[a.Node] || fin < blueAt[a.Node] {
					blueAt[a.Node] = fin
					hasBlue[a.Node] = true
				}
				makespan = max(makespan, fin)
			}
		case OpRead:
			for _, a := range m.Actions {
				start := max(avail[a.Proc], blueAt[a.Node])
				fin := start + gCost
				avail[a.Proc] = fin
				redAt[a.Proc][a.Node] = fin
				makespan = max(makespan, fin)
			}
		case OpCompute:
			for _, a := range m.Actions {
				start := avail[a.Proc]
				for _, u := range in.Graph.Pred(a.Node) {
					start = max(start, redAt[a.Proc][u])
				}
				fin := start + cCost
				avail[a.Proc] = fin
				redAt[a.Proc][a.Node] = fin
				makespan = max(makespan, fin)
			}
		case OpDelete:
			// Free and instantaneous; availability times are unaffected
			// (a deleted pebble's historical ready time is never consulted
			// again by a valid strategy without an intervening re-acquire,
			// which overwrites redAt/blueAt).
		}
	}
	return makespan
}
