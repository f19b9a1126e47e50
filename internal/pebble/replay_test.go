package pebble

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// fig1 builds the example DAG of Figure 1:
//
//	v1,v2 → v3;  (two fresh sources) → v4;  v3,v4 → v5
//	(mirror subtree) → v6;  v5,v6 → v7
//
// Node IDs: v1=0 v2=1 v3=2 a=3 b=4 v4=5 v5=6 c=7 d=8 e=9 f=10 g=11 h=12
// We re-create it exactly as the paper describes: two binary subtrees of
// depth 2 rooted at v5 and v6, joined at v7.
func fig1(t testing.TB) (*dag.Graph, map[string]dag.NodeID) {
	b := dag.NewBuilder("fig1")
	ids := map[string]dag.NodeID{}
	add := func(name string) dag.NodeID {
		id := b.AddLabeledNode(name)
		ids[name] = id
		return id
	}
	v1, v2 := add("v1"), add("v2")
	v3 := add("v3")
	b.AddEdge(v1, v3)
	b.AddEdge(v2, v3)
	u1, u2 := add("u1"), add("u2")
	v4 := add("v4")
	b.AddEdge(u1, v4)
	b.AddEdge(u2, v4)
	v5 := add("v5")
	b.AddEdge(v3, v5)
	b.AddEdge(v4, v5)
	// mirror subtree rooted at v6
	w1, w2 := add("w1"), add("w2")
	x3 := add("x3")
	b.AddEdge(w1, x3)
	b.AddEdge(w2, x3)
	y1, y2 := add("y1"), add("y2")
	x4 := add("x4")
	b.AddEdge(y1, x4)
	b.AddEdge(y2, x4)
	v6 := add("v6")
	b.AddEdge(x3, v6)
	b.AddEdge(x4, v6)
	v7 := add("v7")
	b.AddEdge(v5, v7)
	b.AddEdge(v6, v7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// pebbleSubtree pebbles one fig1 subtree (root with children c1, c2 whose
// own children are the four sources) on processor p with r=3, writing the
// intermediate child to slow memory exactly as the paper's walkthrough
// does. Leaves a red pebble on root; uses 2 I/O moves.
func pebbleSubtree(b *Builder, p int, srcs [4]dag.NodeID, c1, c2, root dag.NodeID) {
	b.Compute(p, srcs[0], srcs[1])
	b.Compute(p, c1)
	b.DropRed(p, srcs[0], srcs[1])
	b.Save(p, c1) // I/O #1
	b.DropRed(p, c1)
	b.Compute(p, srcs[2], srcs[3])
	b.Compute(p, c2)
	b.DropRed(p, srcs[2], srcs[3])
	b.EnsureRed(p, c1) // I/O #2
	b.Compute(p, root)
	b.DropRed(p, c1, c2)
}

// TestFig1SingleProcessor reproduces the paper's single-processor
// walkthrough: r=3 suffices, with 2 I/Os per subtree plus 2 more to spill
// and reload v5 while the other subtree is computed — 6 I/O actions total
// (the walkthrough counts: 2 for v3, then blue on v5, mirror subtree, red
// back on v5).
func TestFig1SingleProcessor(t *testing.T) {
	g, id := fig1(t)
	in := MustInstance(g, MPP(1, 3, 1))
	b := NewBuilder(in)
	pebbleSubtree(b, 0, [4]dag.NodeID{id["v1"], id["v2"], id["u1"], id["u2"]}, id["v3"], id["v4"], id["v5"])
	b.Save(0, id["v5"])
	b.DropRed(0, id["v5"])
	pebbleSubtree(b, 0, [4]dag.NodeID{id["w1"], id["w2"], id["y1"], id["y2"]}, id["x3"], id["x4"], id["v6"])
	b.EnsureRed(0, id["v5"])
	b.Compute(0, id["v7"])

	rep, err := Replay(in, b.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions != 6 {
		t.Errorf("IOActions = %d, want 6 (2 per subtree + spill/reload v5)", rep.IOActions)
	}
	if rep.ComputeActions != 15 {
		t.Errorf("ComputeActions = %d, want 15 (every node once)", rep.ComputeActions)
	}
	if rep.Recomputations != 0 {
		t.Errorf("Recomputations = %d", rep.Recomputations)
	}
	if rep.MaxRedInUse[0] > 3 {
		t.Errorf("MaxRedInUse = %d > r", rep.MaxRedInUse[0])
	}
	if rep.Cost != 6*1+15 {
		t.Errorf("Cost = %d, want 21", rep.Cost)
	}
}

// TestFig1TwoProcessors reproduces the two-processor walkthrough: each
// subtree on its own processor in parallel, then v5 handed from p0 to p1
// via slow memory (2 I/O moves), and v7 computed on p1.
func TestFig1TwoProcessors(t *testing.T) {
	g, id := fig1(t)
	in := MustInstance(g, MPP(2, 3, 1))
	b := NewBuilder(in)

	// Parallel mirror of pebbleSubtree on both processors.
	pair := func(f func(p int) Action) []Action { return []Action{f(0), f(1)} }
	l := map[int][7]dag.NodeID{
		0: {id["v1"], id["v2"], id["u1"], id["u2"], id["v3"], id["v4"], id["v5"]},
		1: {id["w1"], id["w2"], id["y1"], id["y2"], id["x3"], id["x4"], id["v6"]},
	}
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][0]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][1]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][4]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][0], l[p][1])
	}
	b.Write(pair(func(p int) Action { return At(p, l[p][4]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][4])
	}
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][2]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][3]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][5]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][2], l[p][3])
	}
	b.Read(pair(func(p int) Action { return At(p, l[p][4]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][6]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][4], l[p][5])
	}

	// Communicate v5 from p0 to p1 via shared memory.
	b.Write(At(0, id["v5"]))
	b.Read(At(1, id["v5"]))
	b.Compute(1, id["v7"])

	rep, err := Replay(in, b.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	// 2 parallel I/O moves for the subtrees + 2 for the handover.
	if rep.IOMoves != 4 {
		t.Errorf("IOMoves = %d, want 4", rep.IOMoves)
	}
	// 7 parallel compute moves for the subtrees + 1 for v7.
	if rep.ComputeMoves != 8 {
		t.Errorf("ComputeMoves = %d, want 8", rep.ComputeMoves)
	}
	if rep.Cost != 4+8 {
		t.Errorf("Cost = %d, want 12 (vs 21 sequential)", rep.Cost)
	}
	for p := 0; p < 2; p++ {
		if rep.MaxRedInUse[p] > 3 {
			t.Errorf("p%d MaxRedInUse = %d > r", p, rep.MaxRedInUse[p])
		}
	}
}

func chainInstance(t testing.TB, n int, p Params) *Instance {
	t.Helper()
	b := dag.NewBuilder("chain")
	b.AddNewChain(n)
	in, err := NewInstance(b.MustBuild(), p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestParamValidation(t *testing.T) {
	b := dag.NewBuilder("v")
	v := b.AddNodes(3)
	b.AddEdge(v[0], v[2])
	b.AddEdge(v[1], v[2])
	g := b.MustBuild()

	cases := []struct {
		name string
		p    Params
	}{
		{"k=0", Params{K: 0, R: 3, G: 1, ComputeCost: 1}},
		{"r=0", Params{K: 1, R: 0, G: 1, ComputeCost: 1}},
		{"g<0", Params{K: 1, R: 3, G: -1, ComputeCost: 1}},
		{"compute<0", Params{K: 1, R: 3, G: 1, ComputeCost: -2}},
		{"r<Δin+1", Params{K: 1, R: 2, G: 1, ComputeCost: 1}}, // Δin=2 needs r≥3
	}
	for _, c := range cases {
		if _, err := NewInstance(g, c.p); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewInstance(nil, MPP(1, 2, 1)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewInstance(g, MPP(2, 3, 1)); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestNewInstanceRejectsKBeyondInt32: Action.Proc is an int32, so k must
// fit in one.
func TestNewInstanceRejectsKBeyondInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int is 32 bits: no k exceeds math.MaxInt32")
	}
	g := gen.Chain(2)
	if _, err := NewInstance(g, MPP(math.MaxInt32, 2, 1)); err != nil {
		t.Fatalf("k = MaxInt32 rejected: %v", err)
	}
	k := int64(math.MaxInt32) + 1
	if _, err := NewInstance(g, MPP(int(k), 2, 1)); err == nil {
		t.Fatalf("k = %d accepted", k)
	}
}

// TestNewInstanceRejectsCostsBeyondInt32: g and the compute cost must
// fit in an int32, so int64 costs cannot overflow.
func TestNewInstanceRejectsCostsBeyondInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int is 32 bits: no cost exceeds math.MaxInt32")
	}
	g := gen.Chain(2)
	p := MPP(1, 2, math.MaxInt32)
	p.ComputeCost = math.MaxInt32
	if _, err := NewInstance(g, p); err != nil {
		t.Fatalf("g = compute cost = MaxInt32 rejected: %v", err)
	}
	big := int64(math.MaxInt32) + 1
	if _, err := NewInstance(g, MPP(1, 2, int(big))); err == nil {
		t.Errorf("g = %d accepted", big)
	}
	p = MPP(1, 2, 1)
	p.ComputeCost = int(big)
	if _, err := NewInstance(g, p); err == nil {
		t.Errorf("compute cost = %d accepted", big)
	}
}

func TestReplayRejections(t *testing.T) {
	in := chainInstance(t, 3, MPP(2, 2, 1))
	cases := []struct {
		name   string
		moves  []Move
		substr string
	}{
		{"compute without pred", []Move{Compute(At(0, 1))}, "predecessor"},
		{"read without blue", []Move{Read(At(0, 0))}, "no blue"},
		{"write without red", []Move{Write(At(0, 0))}, "no shade-0 red"},
		{"delete absent red", []Move{Delete(At(0, 0))}, "no shade-0 red"},
		{"delete absent blue", []Move{Delete(Blue(0))}, "no blue"},
		{"proc out of range", []Move{Compute(At(5, 0))}, "out of range"},
		{"node out of range", []Move{Compute(At(0, 99))}, "out of range"},
		{"non-injective selection", []Move{Compute(At(0, 0), At(0, 1))}, "injective"},
		{"too many actions", []Move{Compute(At(0, 0), At(1, 0), At(0, 1))}, "exceed"},
		{"empty move", []Move{{Kind: OpCompute}}, "empty"},
		{"memory bound", []Move{
			Compute(At(0, 0)), Compute(At(0, 1)), Compute(At(0, 2)),
		}, "memory bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Replay(in, strategyOf(c.moves...))
			if err == nil {
				t.Fatal("accepted")
			}
			var re *RuleError
			if !errors.As(err, &re) {
				t.Fatalf("error %v is not a RuleError", err)
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not mention %q", err, c.substr)
			}
		})
	}
}

func TestReplayNotTerminal(t *testing.T) {
	in := chainInstance(t, 2, MPP(1, 2, 1))
	_, err := Replay(in, strategyOf(Compute(At(0, 0))))
	if !errors.Is(err, ErrNotTerminal) {
		t.Fatalf("err = %v, want ErrNotTerminal", err)
	}
	// ReplayPartial accepts the same prefix.
	rep, cfg, err := ReplayPartial(in, strategyOf(Compute(At(0, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != 1 || !cfg.Red[0].Contains(0) {
		t.Error("partial replay state wrong")
	}
}

func TestOneShotRejectsRecompute(t *testing.T) {
	in := chainInstance(t, 2, OneShotSPP(2, 1))
	s := strategyOf(Compute(At(0, 0)), Compute(At(0, 1)), Delete(At(0, 0)), Compute(At(0, 0)))
	if _, err := Replay(in, s); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Fatalf("one-shot recompute not rejected: %v", err)
	}
	// Same strategy legal when OneShot is off, and counted as recompute.
	in2 := chainInstance(t, 2, SPP(2, 1))
	rep, err := Replay(in2, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputations != 1 {
		t.Errorf("Recomputations = %d, want 1", rep.Recomputations)
	}

	// One move computing the same node on two processors computes it
	// twice: illegal in one-shot mode, a recomputation otherwise.
	twice := strategyOf(Compute(At(0, 0), At(1, 0)), Compute(At(0, 1)))
	oneShot := MPP(2, 2, 1)
	oneShot.OneShot = true
	_, err = Replay(chainInstance(t, 2, oneShot), twice)
	if err == nil || !strings.Contains(err.Error(), "node 0 computed twice in one one-shot move") {
		t.Fatalf("one-shot double compute in one move not rejected: %v", err)
	}
	rep, err = Replay(chainInstance(t, 2, MPP(2, 2, 1)), twice)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputations != 1 {
		t.Errorf("double compute in one move: Recomputations = %d, want 1", rep.Recomputations)
	}
}

func TestCostAccounting(t *testing.T) {
	in := chainInstance(t, 3, MPP(1, 2, 7))
	b := NewBuilder(in)
	b.Compute(0, 0, 1)
	b.DropRed(0, 0)
	b.Save(0, 1) // write: cost 7
	b.Compute(0, 2)
	rep, err := Replay(in, b.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOCost != 7 || rep.ComputeCost != 3 || rep.Cost != 10 {
		t.Fatalf("costs = io %d compute %d total %d", rep.IOCost, rep.ComputeCost, rep.Cost)
	}
	if got := rep.Surplus(3, 1); got != 7 {
		t.Errorf("Surplus = %v, want 7", got)
	}
	if rep.PerProcComputed[0] != 3 || rep.PerProcIO[0] != 1 {
		t.Error("per-proc accounting wrong")
	}
}

func TestClassicSPPComputeFree(t *testing.T) {
	in := chainInstance(t, 3, SPP(3, 2))
	b := NewBuilder(in)
	b.Compute(0, 0, 1, 2)
	rep, err := Replay(in, b.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != 0 {
		t.Fatalf("classic SPP compute-only cost = %d, want 0", rep.Cost)
	}
}

func TestStrategyCostMatchesReplay(t *testing.T) {
	g, id := fig1(t)
	in := MustInstance(g, MPP(1, 3, 3))
	b := NewBuilder(in)
	pebbleSubtree(b, 0, [4]dag.NodeID{id["v1"], id["v2"], id["u1"], id["u2"]}, id["v3"], id["v4"], id["v5"])
	s := b.Strategy()
	rep, _, err := ReplayPartial(in, s)
	if err != nil {
		t.Fatal(err)
	}
	var cost int64
	for i := range s.Len() {
		cost += s.Move(i).Cost(in.Params)
	}
	if cost != rep.Cost {
		t.Fatalf("summed Move.Cost = %d, Replay cost = %d", cost, rep.Cost)
	}
}

func TestStrategyString(t *testing.T) {
	c := strategyOf(Compute(At(0, 0)), Write(At(0, 0)))
	if c.String() != "strategy(2 moves): compute[p0:v0]; write[p0:v0]" {
		t.Errorf("String = %q", c.String())
	}
	long := &Strategy{}
	for i := 0; i < 100; i++ {
		long.Append(Compute(At(0, 0)))
	}
	if !strings.Contains(long.String(), "elided") {
		t.Error("long strategy not elided")
	}
	if Delete(Blue(3)).String() != "delete[blue:v3]" {
		t.Errorf("Delete string = %q", Delete(Blue(3)).String())
	}
}

func TestSequentializeLemma5(t *testing.T) {
	// Build the two-processor fig1 strategy, sequentialize, and check it
	// is valid for K=1, R=k·r with I/O moves ≤ k × parallel I/O moves.
	g, id := fig1(t)
	in := MustInstance(g, MPP(2, 3, 1))
	b := NewBuilder(in)
	pair := func(f func(p int) Action) []Action { return []Action{f(0), f(1)} }
	l := map[int][7]dag.NodeID{
		0: {id["v1"], id["v2"], id["u1"], id["u2"], id["v3"], id["v4"], id["v5"]},
		1: {id["w1"], id["w2"], id["y1"], id["y2"], id["x3"], id["x4"], id["v6"]},
	}
	for _, i := range []int{0, 1, 4} {
		i := i
		b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][i]) })...)
	}
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][0], l[p][1])
	}
	b.Write(pair(func(p int) Action { return At(p, l[p][4]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][4])
	}
	for _, i := range []int{2, 3, 5} {
		i := i
		b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][i]) })...)
	}
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][2], l[p][3])
	}
	b.Read(pair(func(p int) Action { return At(p, l[p][4]) })...)
	b.ComputeParallel(pair(func(p int) Action { return At(p, l[p][6]) })...)
	for p := 0; p < 2; p++ {
		b.DropRed(p, l[p][4], l[p][5])
	}
	b.Write(At(0, id["v5"]))
	b.Read(At(1, id["v5"]))
	b.Compute(1, id["v7"])

	par := b.Strategy()
	parRep, err := Replay(in, par)
	if err != nil {
		t.Fatal(err)
	}

	seq := Sequentialize(in, par)
	seqIn := MustInstance(g, Params{K: 1, R: in.K * in.R, G: in.G, ComputeCost: in.ComputeCost})
	seqRep, err := Replay(seqIn, seq)
	if err != nil {
		t.Fatalf("sequentialized strategy invalid: %v", err)
	}
	if seqRep.IOMoves > in.K*parRep.IOMoves {
		t.Errorf("sequential I/O moves %d > k × parallel I/O moves %d",
			seqRep.IOMoves, in.K*parRep.IOMoves)
	}
	if seqRep.ComputeActions > parRep.ComputeActions {
		t.Errorf("sequential computes %d > parallel computes %d",
			seqRep.ComputeActions, parRep.ComputeActions)
	}
}

func TestBuilderPanicsOnViolation(t *testing.T) {
	in := chainInstance(t, 3, MPP(1, 2, 1))
	cases := []func(b *Builder){
		func(b *Builder) { b.Compute(0, 1) },                       // pred not red
		func(b *Builder) { b.Read(At(0, 0)) },                      // no blue
		func(b *Builder) { b.Write(At(0, 0)) },                     // not red
		func(b *Builder) { b.EnsureRed(0, 2) },                     // neither red nor blue
		func(b *Builder) { b.Delete(At(0, 1)) },                    // absent
		func(b *Builder) { b.Compute(0, 0, 1, 2) },                 // memory bound (r=2, chain keeps preds)
		func(b *Builder) { b.ComputeParallel(At(0, 0), At(0, 0)) }, // non-injective
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(NewBuilder(in))
		}()
	}
}

func TestBuilderHelpers(t *testing.T) {
	in := chainInstance(t, 3, MPP(1, 2, 1))
	b := NewBuilder(in)
	if b.FreeSlots(0) != 2 {
		t.Fatal("FreeSlots")
	}
	b.Compute(0, 0, 1)
	if b.FreeSlots(0) != 0 {
		t.Fatal("FreeSlots after compute")
	}
	b.Save(0, 1)
	b.Save(0, 1) // idempotent, no second write
	b.DropAllRed(0, 1)
	if b.Config().Red[0].Count() != 1 || !b.Config().Red[0].Contains(1) {
		t.Fatal("DropAllRed keep set wrong")
	}
	b.EnsureRed(0, 1) // already red: no move
	b.Compute(0, 2)
	rep, err := Replay(in, b.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOActions != 1 {
		t.Fatalf("IOActions = %d, want 1 (Save must be idempotent)", rep.IOActions)
	}
}

func TestConfigHelpers(t *testing.T) {
	c := NewConfig(4, 2)
	c.Red[0].Add(1)
	c.Blue.Add(2)
	if !c.HasAnyPebble(1) || !c.HasAnyPebble(2) || c.HasAnyPebble(3) {
		t.Error("HasAnyPebble wrong")
	}
	if !c.Valid(1) || c.Valid(0) {
		t.Error("Valid wrong")
	}
	d := c.Clone()
	if !c.Equal(d) {
		t.Error("clone not equal")
	}
	d.Red[1].Add(0)
	if c.Equal(d) {
		t.Error("mutated clone equal")
	}
	if c.RedCount(0) != 1 || c.RedCount(1) != 0 {
		t.Error("RedCount wrong")
	}
	if !strings.Contains(c.String(), "B={2}") {
		t.Errorf("String = %q", c.String())
	}
}
