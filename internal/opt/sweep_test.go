package opt

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/pebble"
	"repro/internal/sched"
)

// The exhaustive small-instance gate. Every DAG up to four nodes (five
// with OPT_SWEEP=1) is crossed with a grid of game parameters and solved
// twice: by the exact search under each of its configurations, and by
// refModel, an independent Dijkstra over the full move rules that shares
// no code with the search. Every bound and scheduler is then held
// against the reference optimum. A second test builds the whole
// reachable state graph of the smallest instances and checks the
// heuristics edge by edge against exact costs-to-go.
//
// OPT_SWEEP is read here and by TestDomIndexMatchesBruteForce
// (dominate_test.go), which then runs 5 000 seeds; scripts/verify.sh
// sets it in its own step, outside -race.

// refLane is the width in bits of one node set in a packed reference
// state, so a reference instance has at most refLane nodes.
const refLane = 8

// refModel is the reference for the full MPP rules (R1-M)–(R3-M) plus
// free deletes. A state packs into one uint64: processor p's red set in
// lane p, then the blue set, then — in one-shot mode, or when track asks
// for it — the computed set. The moves are:
//
//   - a delete removes one red pebble from one processor, at cost 0 (a
//     parallel delete is a sequence of these);
//   - a write, read or compute takes every non-empty shaded selection of
//     legal single actions, sub-selections included.
//
// Only provable no-ops are left out: blue deletes, reading or computing
// a node the processor already holds, and writing a node already blue.
// There is no heuristic, no lazy deletion and no shade canonicalization.
type refModel struct {
	n, k, r   int
	g, c      int64
	oneShot   bool
	track     bool     // the state carries the computed set
	pred      []uint64 // predecessor mask per node
	sinks     uint64
	blueShift uint
	compShift uint
	opts      [][]int // per-processor legal actions of the move being built
	choice    []int   // per-processor pick, -1 = idle
}

// newRefModel returns the reference for in. The computed set is part of
// the state in one-shot mode, where it decides legality, and whenever
// track is set; otherwise it changes neither a move nor the goal, so it
// is left out.
func newRefModel(in *pebble.Instance, track bool) *refModel {
	n, k := in.N(), in.K
	if n > refLane || (k+2)*refLane > 64 {
		panic(fmt.Sprintf("refModel: n=%d k=%d does not pack into one word", n, k))
	}
	m := &refModel{
		n: n, k: k, r: in.R, g: int64(in.G), c: int64(in.ComputeCost),
		oneShot:   in.OneShot,
		track:     track || in.OneShot,
		pred:      make([]uint64, n),
		blueShift: uint(k * refLane),
		compShift: uint((k + 1) * refLane),
		opts:      make([][]int, k),
		choice:    make([]int, k),
	}
	for v := 0; v < n; v++ {
		for _, u := range in.Graph.Pred(dag.NodeID(v)) {
			m.pred[v] |= 1 << uint(u)
		}
	}
	for _, v := range in.Graph.Sinks() {
		m.sinks |= 1 << uint(v)
	}
	return m
}

const refLaneMask = 1<<refLane - 1

func (m *refModel) red(s uint64, p int) uint64 { return s >> uint(p*refLane) & refLaneMask }
func (m *refModel) blue(s uint64) uint64       { return s >> m.blueShift & refLaneMask }
func (m *refModel) computed(s uint64) uint64   { return s >> m.compShift & refLaneMask }

func (m *refModel) isGoal(s uint64) bool {
	pebbled := m.blue(s)
	for p := 0; p < m.k; p++ {
		pebbled |= m.red(s, p)
	}
	return m.sinks&^pebbled == 0
}

// words unpacks s into the search's state layout: k red words, then
// blue, then computed.
func (m *refModel) words(s uint64, w []uint64) []uint64 {
	w = w[:0]
	for p := 0; p < m.k; p++ {
		w = append(w, m.red(s, p))
	}
	return append(w, m.blue(s), m.computed(s))
}

// succ calls emit for every successor of s with the cost of its move.
// A successor reached by several moves may be emitted more than once.
func (m *refModel) succ(s uint64, emit func(t uint64, cost int64)) {
	blue, comp := m.blue(s), m.computed(s)
	for p := 0; p < m.k; p++ {
		for reds := m.red(s, p); reds != 0; reds &= reds - 1 {
			emit(s&^((reds&-reds)<<uint(p*refLane)), 0)
		}
	}

	// Writes: v red on p, not blue. A write's successor depends only on
	// the set of nodes written, so each set is emitted once.
	for p := 0; p < m.k; p++ {
		m.opts[p] = m.opts[p][:0]
		for v, reds := 0, m.red(s, p); v < m.n; v++ {
			if reds>>uint(v)&1 != 0 && blue>>uint(v)&1 == 0 {
				m.opts[p] = append(m.opts[p], v)
			}
		}
	}
	var written [1 << refLane / 64]uint64
	m.selections(0, false, func() {
		var set uint64
		for _, v := range m.choice {
			if v >= 0 {
				set |= 1 << uint(v)
			}
		}
		if written[set/64]>>(set%64)&1 != 0 {
			return
		}
		written[set/64] |= 1 << (set % 64)
		emit(s|set<<m.blueShift, m.g)
	})

	// Reads: v blue, not red on p, and p has a free slot.
	for p := 0; p < m.k; p++ {
		m.opts[p] = m.opts[p][:0]
		reds := m.red(s, p)
		if bits.OnesCount64(reds) >= m.r {
			continue
		}
		for v := 0; v < m.n; v++ {
			if blue>>uint(v)&1 != 0 && reds>>uint(v)&1 == 0 {
				m.opts[p] = append(m.opts[p], v)
			}
		}
	}
	m.selections(0, false, func() {
		t := s
		for p, v := range m.choice {
			if v >= 0 {
				t |= 1 << uint(p*refLane+v)
			}
		}
		emit(t, m.g)
	})

	// Computes: every predecessor red on p, v not red on p, p has a free
	// slot; in one-shot mode v never computed, and no node computed on
	// two processors in one move.
	for p := 0; p < m.k; p++ {
		m.opts[p] = m.opts[p][:0]
		reds := m.red(s, p)
		if bits.OnesCount64(reds) >= m.r {
			continue
		}
		for v := 0; v < m.n; v++ {
			if m.pred[v]&^reds == 0 && reds>>uint(v)&1 == 0 && !(m.oneShot && comp>>uint(v)&1 != 0) {
				m.opts[p] = append(m.opts[p], v)
			}
		}
	}
	m.selections(0, false, func() {
		t := s
		var seen uint64
		for p, v := range m.choice {
			if v < 0 {
				continue
			}
			if m.oneShot && seen>>uint(v)&1 != 0 {
				return
			}
			seen |= 1 << uint(v)
			t |= 1 << uint(p*refLane+v)
		}
		if m.track {
			t |= seen << m.compShift
		}
		emit(t, m.c)
	})
}

// selections sets m.choice to every non-empty shaded selection over
// m.opts (each processor idle or on one of its options) and calls apply
// for each.
func (m *refModel) selections(p int, any bool, apply func()) {
	if p == m.k {
		if any {
			apply()
		}
		return
	}
	m.choice[p] = -1
	m.selections(p+1, any, apply)
	for _, v := range m.opts[p] {
		m.choice[p] = v
		m.selections(p+1, true, apply)
	}
	m.choice[p] = -1
}

// opt returns the optimum cost: Dijkstra from the empty configuration
// over a bucket queue (move costs are small non-negative integers), with
// a map from packed state to its index in the distance slice. It stops
// once no unexpanded state lies below the cheapest goal reached. -1
// means no goal is reachable.
func (m *refModel) opt() int64 {
	index := map[uint64]int32{0: 0}
	states, dist := []uint64{0}, []int64{0}
	buckets := [][]int32{{0}}
	best := unreachable
	if m.isGoal(0) {
		best = 0
	}
	for d := 0; d < len(buckets) && int64(d) < best; d++ {
		for len(buckets[d]) > 0 && int64(d) < best {
			b := buckets[d]
			i := b[len(b)-1]
			buckets[d] = b[:len(b)-1]
			if dist[i] != int64(d) {
				continue // reached again later at a lower cost
			}
			m.succ(states[i], func(t uint64, cost int64) {
				nd := int64(d) + cost
				j, ok := index[t]
				if ok && dist[j] <= nd {
					return
				}
				if !ok {
					j = int32(len(states))
					index[t] = j
					states = append(states, t)
					dist = append(dist, nd)
				}
				dist[j] = nd
				if nd < best && m.isGoal(t) {
					best = nd
				}
				for int(nd) >= len(buckets) {
					buckets = append(buckets, nil)
				}
				buckets[nd] = append(buckets[nd], j)
			})
		}
	}
	if best == unreachable {
		return -1
	}
	return best
}

// unlabeledDAGCounts is the number of DAGs on n unlabeled nodes, n = 0,
// 1, 2, … (OEIS A003087): smallDAGs must find exactly these.
var unlabeledDAGCounts = []int{1, 1, 2, 6, 31, 302, 5984}

// checkedSmallDAGs is smallDAGs(maxN), checked against
// unlabeledDAGCounts.
func checkedSmallDAGs(t *testing.T, maxN int) []*dag.Graph {
	t.Helper()
	graphs := smallDAGs(maxN)
	want := 0
	for _, c := range unlabeledDAGCounts[1 : maxN+1] {
		want += c
	}
	if len(graphs) != want {
		t.Fatalf("enumerated %d DAGs on 1..%d nodes, want %d", len(graphs), maxN, want)
	}
	return graphs
}

// smallDAGs returns one graph per isomorphism class of DAGs on 1 to maxN
// nodes. Every DAG has a topological numbering, so the upper-triangular
// edge masks (edges i→j with i < j) reach every class; two masks are one
// class when their adjacency matrices, read as n² bits, have the same
// least value over all node permutations.
func smallDAGs(maxN int) []*dag.Graph {
	var out []*dag.Graph
	for n := 1; n <= maxN; n++ {
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		perms := permutations(n)
		seen := map[uint64]bool{}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			least := ^uint64(0)
			for _, pi := range perms {
				var adj uint64
				for e, pr := range pairs {
					if mask>>e&1 != 0 {
						adj |= 1 << uint(pi[pr[0]]*n+pi[pr[1]])
					}
				}
				least = min(least, adj)
			}
			if seen[least] {
				continue
			}
			seen[least] = true
			var edges []string
			for e, pr := range pairs {
				if mask>>e&1 != 0 {
					edges = append(edges, fmt.Sprintf("%d%d", pr[0], pr[1]))
				}
			}
			b := dag.NewBuilder(fmt.Sprintf("dag%d[%s]", n, strings.Join(edges, ",")))
			b.AddNodes(n)
			for e, pr := range pairs {
				if mask>>e&1 != 0 {
					b.AddEdge(dag.NodeID(pr[0]), dag.NodeID(pr[1]))
				}
			}
			out = append(out, b.MustBuild())
		}
	}
	return out
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := make([]int, 0, n)
			q = append(q, p[:i]...)
			q = append(q, n-1)
			q = append(q, p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// sweepParams crosses k from 1 to maxK, scarce and ample r (Δin+1 and
// n, once when equal), g ∈ {0,1,5}, compute cost 0 and 1, and one-shot
// off and on.
func sweepParams(g *dag.Graph, maxK int) []pebble.Params {
	rs := []int{g.MaxInDegree() + 1}
	if g.N() != rs[0] {
		rs = append(rs, g.N())
	}
	var out []pebble.Params
	for k := 1; k <= maxK; k++ {
		for _, r := range rs {
			for _, io := range []int{0, 1, 5} {
				for _, c := range []int{0, 1} {
					for _, oneShot := range []bool{false, true} {
						out = append(out, pebble.Params{K: k, R: r, G: io, ComputeCost: c, OneShot: oneShot})
					}
				}
			}
		}
	}
	return out
}

func instanceTag(in *pebble.Instance) string {
	return fmt.Sprintf("%s k=%d r=%d g=%d c=%d oneshot=%v",
		in.Graph.Name(), in.K, in.R, in.G, in.ComputeCost, in.OneShot)
}

// sweepSchedulers are the schedulers held against the reference optimum,
// each replayed as produced and after Improve.
var sweepSchedulers = []sched.Scheduler{
	sched.Baseline{},
	sched.Greedy{},
	sched.Partitioned{Assign: sched.AssignLevelRoundRobin, AssignName: "levels"},
	sched.Partitioned{Assign: sched.AssignTopoBlocks, AssignName: "blocks"},
}

// maxSweepFailures stops a sweep after this many failing instances, so a
// broken search reports a readable handful instead of thousands.
const maxSweepFailures = 10

// TestExactMatchesReference is the exhaustive gate on the optimum: on
// every DAG up to four nodes (five with OPT_SWEEP=1) crossed with
// sweepParams, the exact search under DefaultConfig, floor and io with
// and without dominance, witness and ModeAsync at two workers returns
// the reference optimum, every witness replays to it, and the witness
// Result equals DefaultConfig's in every field but Strategy; every
// lower bound (StructuralLower, Lemma1Lower, CertifiedLower,
// RootLowerBound in each mode) is at most OPT, and OPT is at most
// Lemma1Upper and the replayed cost of every scheduler, with and
// without Improve.
func TestExactMatchesReference(t *testing.T) {
	maxN := 4
	if os.Getenv("OPT_SWEEP") != "" {
		maxN = 5
	}
	graphs := checkedSmallDAGs(t, maxN)

	witness := DefaultConfig(0)
	witness.Witness = true
	async := DefaultConfig(0)
	async.Mode, async.Workers = ModeAsync, 2
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig(0)},
		{"floor", Config{Heuristic: HeuristicFloor}},
		{"floor+dom", Config{Heuristic: HeuristicFloor, Dominance: true}},
		{"io", Config{Heuristic: HeuristicIO}},
		{"io+dom", Config{Heuristic: HeuristicIO, Dominance: true}},
		{"witness", witness},
		{"async", async},
	}

	ctx := context.Background()
	instances, failures := 0, 0
	for _, g := range graphs {
		for _, p := range sweepParams(g, 3) {
			in := pebble.MustInstance(g, p)
			tag := instanceTag(in)
			instances++
			failed := false
			fail := func(format string, args ...any) {
				t.Errorf("%s: "+format, append([]any{tag}, args...)...)
				failed = true
			}

			opt := newRefModel(in, false).opt()
			if opt < 0 {
				fail("reference finds no pebbling")
				continue
			}
			var value *Result
			for _, c := range configs {
				res, err := ExactWith(ctx, in, c.cfg)
				if err != nil {
					fail("%s: %v", c.name, err)
					continue
				}
				if res.Status != StatusComplete || res.Cost != opt {
					fail("%s: status %v cost %d, reference OPT %d", c.name, res.Status, res.Cost, opt)
				}
				if c.name == "default" {
					value = res
				}
				if c.cfg.Witness {
					rep, err := pebble.Replay(in, res.Strategy)
					if err != nil {
						fail("%s: witness does not replay: %v", c.name, err)
					} else if rep.Cost != opt {
						fail("%s: witness replays to %d, OPT %d", c.name, rep.Cost, opt)
					}
					if value != nil && !sameButStrategy(res, value) {
						fail("%s: Result %+v ≠ default's %+v", c.name, *res, *value)
					}
				}
			}

			certified, _ := bounds.CertifiedLower(in)
			for _, lb := range []struct {
				name string
				v    int64
			}{
				{"StructuralLower", bounds.StructuralLower(in)},
				{"Lemma1Lower", bounds.Lemma1Lower(in)},
				{"CertifiedLower", certified},
				{"RootLowerBound(floor)", RootLowerBound(in, HeuristicFloor)},
				{"RootLowerBound(io)", RootLowerBound(in, HeuristicIO)},
				{"RootLowerBound(max)", RootLowerBound(in, HeuristicMax)},
			} {
				if lb.v > opt {
					fail("%s = %d exceeds OPT %d", lb.name, lb.v, opt)
				}
			}
			if up := bounds.Lemma1Upper(in); opt > up {
				fail("OPT %d exceeds Lemma1Upper %d", opt, up)
			}

			for _, s := range sweepSchedulers {
				strat, err := s.Schedule(in)
				if err != nil {
					fail("%s: %v", s.Name(), err)
					continue
				}
				rep, err := pebble.Replay(in, strat)
				if err != nil {
					fail("%s: strategy does not replay: %v", s.Name(), err)
					continue
				}
				if rep.Cost < opt {
					fail("%s costs %d, below OPT %d", s.Name(), rep.Cost, opt)
				}
				_, irep, err := sched.Improve(in, strat)
				if err != nil {
					fail("%s+improve: %v", s.Name(), err)
				} else if irep.Cost < opt {
					fail("%s+improve costs %d, below OPT %d", s.Name(), irep.Cost, opt)
				}
			}

			if failed {
				if failures++; failures >= maxSweepFailures {
					t.Fatalf("stopping after %d failing instances", failures)
				}
			}
		}
	}
	t.Logf("%d DAGs, %d instances", len(graphs), instances)
}

// TestZeroIOMatchesReference holds ZeroIO to the reference on every DAG
// up to five nodes (six with OPT_SWEEP=1) and every r from Δin+1 to n:
// its verdict is feasible exactly when the reference's one-shot SPP
// optimum (k=1, compute cost 0, g=1) is 0, and every feasible Order
// replays through ZeroIOStrategy at cost 0.
func TestZeroIOMatchesReference(t *testing.T) {
	maxN := 5
	if os.Getenv("OPT_SWEEP") != "" {
		maxN = 6
	}
	ctx := context.Background()
	pairs, feasible, failures := 0, 0, 0
	for _, g := range checkedSmallDAGs(t, maxN) {
		for r := g.MaxInDegree() + 1; r <= g.N(); r++ {
			in := pebble.MustInstance(g, pebble.OneShotSPP(r, 1))
			pairs++
			res, err := ZeroIO(ctx, g, r, 0)
			if err != nil {
				t.Fatalf("%s: %v", instanceTag(in), err)
			}
			opt := newRefModel(in, false).opt()
			ok := res.Verdict == VerdictFeasible
			if ok != (opt == 0) {
				t.Errorf("%s: ZeroIO verdict %v, reference OPT %d", instanceTag(in), res.Verdict, opt)
				failures++
			}
			if ok {
				feasible++
				rep, err := pebble.Replay(in, ZeroIOStrategy(g, res.Order))
				if err != nil {
					t.Errorf("%s: order %v does not replay: %v", instanceTag(in), res.Order, err)
					failures++
				} else if rep.Cost != 0 {
					t.Errorf("%s: order %v replays at cost %d", instanceTag(in), res.Order, rep.Cost)
					failures++
				}
			}
			if failures >= maxSweepFailures {
				t.Fatalf("stopping after %d failures", failures)
			}
		}
	}
	t.Logf("%d (DAG, r) pairs, %d feasible", pairs, feasible)
}

// refGraph is the whole state graph reachable from the empty
// configuration under refModel's moves, goals expanded too, in CSR form:
// state i's edges are to[off[i]:off[i+1]] with costs cost[off[i]:off[i+1]].
type refGraph struct {
	states []uint64
	off    []int32
	to     []int32
	cost   []int64
}

func buildRefGraph(m *refModel) *refGraph {
	gr := &refGraph{states: []uint64{0}}
	index := map[uint64]int32{0: 0}
	for i := 0; i < len(gr.states); i++ {
		gr.off = append(gr.off, int32(len(gr.to)))
		m.succ(gr.states[i], func(t uint64, cost int64) {
			j, ok := index[t]
			if !ok {
				j = int32(len(gr.states))
				index[t] = j
				gr.states = append(gr.states, t)
			}
			gr.to = append(gr.to, j)
			gr.cost = append(gr.cost, cost)
		})
	}
	gr.off = append(gr.off, int32(len(gr.to)))
	return gr
}

// unreachable stands for an infinite cost: no path reaches a goal.
const unreachable = int64(1) << 62

// costToGo returns each state's exact cost to the cheapest goal: a
// reverse Dijkstra from every goal over a bucket queue.
func (gr *refGraph) costToGo(m *refModel) []int64 {
	n := len(gr.states)
	roff := make([]int32, n+1)
	for _, j := range gr.to {
		roff[j+1]++
	}
	for i := 0; i < n; i++ {
		roff[i+1] += roff[i]
	}
	rfrom := make([]int32, len(gr.to))
	rcost := make([]int64, len(gr.to))
	fill := append([]int32(nil), roff[:n]...)
	for i := 0; i < n; i++ {
		for e := gr.off[i]; e < gr.off[i+1]; e++ {
			j := gr.to[e]
			rfrom[fill[j]], rcost[fill[j]] = int32(i), gr.cost[e]
			fill[j]++
		}
	}

	ctg := make([]int64, n)
	var buckets [][]int32
	push := func(i int32, d int64) {
		ctg[i] = d
		for int(d) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[d] = append(buckets[d], i)
	}
	for i, s := range gr.states {
		ctg[i] = unreachable
		if m.isGoal(s) {
			push(int32(i), 0)
		}
	}
	for d := 0; d < len(buckets); d++ {
		for len(buckets[d]) > 0 {
			b := buckets[d]
			j := b[len(b)-1]
			buckets[d] = b[:len(b)-1]
			if ctg[j] != int64(d) {
				continue
			}
			for e := roff[j]; e < roff[j+1]; e++ {
				if nd := int64(d) + rcost[e]; nd < ctg[rfrom[e]] {
					push(rfrom[e], nd)
				}
			}
		}
	}
	return ctg
}

// TestHeuristicFullGraph is the per-edge gate on the heuristics. For
// every DAG up to three nodes crossed with sweepParams (OPT_SWEEP=1 adds
// the four-node DAGs at k ≤ 2), it builds the whole reachable state
// graph under the full rules, gets exact costs-to-go from the goals, and
// asserts for floor, io and max: h = 0 at goals; h ≤ cost-to-go; a state
// h calls dead (h < 0) reaches no goal; and h(s) ≤ c(s,s′) + h(s′) on
// every edge between live states. The monotone bucket queue and the
// one-shard no-re-expansion claim rest on that consistency.
func TestHeuristicFullGraph(t *testing.T) {
	type job struct {
		g    *dag.Graph
		maxK int
	}
	var jobs []job
	for _, g := range smallDAGs(3) {
		jobs = append(jobs, job{g, 3})
	}
	if os.Getenv("OPT_SWEEP") != "" {
		for _, g := range smallDAGs(4) {
			if g.N() == 4 {
				jobs = append(jobs, job{g, 2})
			}
		}
	}
	modes := []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax}
	states, edges, failures := 0, 0, 0
	for _, jb := range jobs {
		for _, p := range sweepParams(jb.g, jb.maxK) {
			in := pebble.MustInstance(jb.g, p)
			m := newRefModel(in, true)
			gr := buildRefGraph(m)
			ctg := gr.costToGo(m)
			states += len(gr.states)
			edges += len(gr.to)
			violations := 0
			for _, mode := range modes {
				s := &solver{in: in, n: in.N(), cfg: Config{Heuristic: mode}}
				s.initDerived()
				h := make([]int64, len(gr.states))
				var w []uint64
				for i, st := range gr.states {
					w = m.words(st, w)
					h[i] = s.h(w)
				}
				report := func(format string, args ...any) {
					if violations < 5 {
						t.Errorf("%s %v: "+format, append([]any{instanceTag(in), mode}, args...)...)
					}
					violations++
				}
				for i, st := range gr.states {
					switch {
					case m.isGoal(st) && h[i] != 0:
						report("h = %d at goal %v", h[i], m.words(st, nil))
					case h[i] < 0:
						if ctg[i] != unreachable {
							report("dead state %v reaches a goal at cost %d", m.words(st, nil), ctg[i])
						}
						continue
					case h[i] > ctg[i]:
						report("h = %d above cost-to-go %d at %v", h[i], ctg[i], m.words(st, nil))
					}
					for e := gr.off[i]; e < gr.off[i+1]; e++ {
						j := gr.to[e]
						if h[j] >= 0 && h[i] > gr.cost[e]+h[j] {
							report("inconsistent edge %v → %v: h %d > %d + %d",
								m.words(st, nil), m.words(gr.states[j], nil), h[i], gr.cost[e], h[j])
						}
					}
				}
			}
			if violations > 0 {
				if failures++; failures >= maxSweepFailures {
					t.Fatalf("stopping after %d failing instances", failures)
				}
			}
		}
	}
	t.Logf("%d states, %d edges", states, edges)
}
