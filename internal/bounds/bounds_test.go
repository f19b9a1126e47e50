package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/pebble"
	"repro/internal/sched"
)

func TestLemma1Sandwich(t *testing.T) {
	g := gen.Grid2D(4, 4)
	in := pebble.MustInstance(g, pebble.MPP(2, 4, 3))
	lo, hi := Lemma1Lower(in), Lemma1Upper(in)
	if lo != 8 { // ⌈16/2⌉
		t.Errorf("lower = %d, want 8", lo)
	}
	if hi != (3*3+1)*16 {
		t.Errorf("upper = %d, want %d", hi, (3*3+1)*16)
	}
	rep, err := sched.Run(sched.Baseline{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost < lo || rep.Cost > hi {
		t.Errorf("baseline cost %d outside [%d, %d]", rep.Cost, lo, hi)
	}
}

func TestStructuralLower(t *testing.T) {
	// Grid 4x4, k=2, r=4, g=3: depth 7 beats ⌈16/2⌉ = 8? No — 8 > 7, so
	// the compute floor wins; 1 sink ≤ k·r, so no store term.
	g := gen.Grid2D(4, 4)
	in := pebble.MustInstance(g, pebble.MPP(2, 4, 3))
	if got := StructuralLower(in); got != 8 {
		t.Errorf("StructuralLower(grid4x4 k2) = %d, want 8", got)
	}
	// Chain 16, k=4: depth 16 beats ⌈16/4⌉ = 4.
	in2 := pebble.MustInstance(gen.Chain(16), pebble.MPP(4, 2, 3))
	if got := StructuralLower(in2); got != 16 {
		t.Errorf("StructuralLower(chain16 k4) = %d, want 16", got)
	}
	// Two-layer with many sinks and tiny capacity: store floor kicks in.
	// 3 sources → 12 sinks, k=1, r=5, g=2: computes = 15, sinks beyond
	// capacity = 12 − 5 = 7 writes → 15 + 2·7 = 29... depth 2 < 15.
	tl := gen.TwoLayerRandom(3, 12, 1.0, 1) // p=1: complete bipartite
	in3 := pebble.MustInstance(tl, pebble.MPP(1, 5, 2))
	if got := StructuralLower(in3); got != 15+2*7 {
		t.Errorf("StructuralLower(twolayer) = %d, want %d", got, 15+2*7)
	}
	// Many sources never raise the certified bound — sources are
	// computable in this game — but the blue-start convention charges
	// them as loads: a depth-5 binary in-tree has 32 source leaves and
	// one sink. k=1, r=3, g=2: computes = 63 (n = 63, depth 6), no store
	// term (1 sink); blue-start adds 32 − 3 = 29 loads → 63 + 2·29 = 121.
	it := gen.BinaryInTree(5)
	in4 := pebble.MustInstance(it, pebble.MPP(1, 3, 2))
	if got := StructuralLower(in4); got != 63 {
		t.Errorf("StructuralLower(intree5) = %d, want 63", got)
	}
	if got := BlueStartLower(in4); got != 63+2*29 {
		t.Errorf("BlueStartLower(intree5) = %d, want %d", got, 63+2*29)
	}
	// Ample capacity switches the load term off: k=2, r=17 → k·r = 34 ≥ 32.
	in5 := pebble.MustInstance(it, pebble.MPP(2, 17, 2))
	if got, want := BlueStartLower(in5), StructuralLower(in5); got != want || got != 32 {
		t.Errorf("BlueStartLower(intree5 ample) = %d, want structural %d = 32", got, want)
	}
	// Never exceeds the trivial upper bound, and ≥ Lemma 1 lower.
	for _, in := range []*pebble.Instance{in, in2, in3} {
		if sl := StructuralLower(in); sl < Lemma1Lower(in) || sl > Lemma1Upper(in) {
			t.Errorf("StructuralLower %d outside [%d, %d]", sl, Lemma1Lower(in), Lemma1Upper(in))
		}
	}
}

func TestLemma5AndCorollary1(t *testing.T) {
	if got := Lemma5IO(100, 4); got != 25 {
		t.Errorf("Lemma5IO = %v", got)
	}
	// Corollary 1 with L=100, n=1000, k=4, g=2: 2·100/4 + 1000/4 = 300.
	if got := Corollary1Cost(100, 1000, 4, 2); got != 300 {
		t.Errorf("Corollary1Cost = %v", got)
	}
}

func TestHongKungFFTShape(t *testing.T) {
	// Monotone decreasing in s, increasing in n.
	if HongKungFFT(1024, 16) <= HongKungFFT(1024, 64) {
		t.Error("bound not decreasing in fast memory")
	}
	if HongKungFFT(2048, 16) <= HongKungFFT(1024, 16) {
		t.Error("bound not increasing in n")
	}
	// n log n / log s exactly: 1024·10/4 for s=16.
	if got, want := HongKungFFT(1024, 16), 1024.0*10/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("HongKungFFT = %v, want %v", got, want)
	}
	if HongKungFFT(1, 16) != 0 || HongKungFFT(16, 1) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

func TestKwasniewskiMMMShape(t *testing.T) {
	// 2n³/√s + n² exactly for n=4, s=16: 2·64/4 + 16 = 48.
	if got := KwasniewskiMMM(4, 16); math.Abs(got-48) > 1e-9 {
		t.Errorf("KwasniewskiMMM = %v, want 48", got)
	}
	if KwasniewskiMMM(8, 4) <= KwasniewskiMMM(8, 16) {
		t.Error("bound not decreasing in fast memory")
	}
}

func TestCostLowerBoundInstantiations(t *testing.T) {
	// FFT: (n/k)(g·logn/log(rk)+1), n=1024,k=2,r=8,g=3 → 512·(3·10/4+1)=4352.
	if got := FFTCostLowerBound(1024, 2, 8, 3); math.Abs(got-4352) > 1e-9 {
		t.Errorf("FFTCostLowerBound = %v, want 4352", got)
	}
	// MMM: (n/k)(g(2n²/√(rk)+n)+1): n=4,k=2,r=8,g=1 → 2·(2·16/4+4+1) = 26.
	if got := MMMCostLowerBound(4, 2, 8, 1); math.Abs(got-26) > 1e-9 {
		t.Errorf("MMMCostLowerBound = %v, want 26", got)
	}
}

// TestQuickSchedulersRespectFFTBound checks the load-bearing property of
// Lemma 5: measured MPP I/O moves of any valid strategy on the FFT DAG
// are at least the translated bound L/k — using the *actual pebbled size*
// (our FFT DAG has n·(log n+1) nodes but the classic bound is for the
// n-point transform; we check against the conservative per-instance form
// with the instance's total fast memory).
func TestQuickSchedulersRespectFFTBound(t *testing.T) {
	prop := func(rSeed uint8) bool {
		logN := 3
		n := 1 << logN
		g := gen.FFT(logN)
		k := 1 + int(rSeed%2)
		r := 3 + int(rSeed%3)
		in := pebble.MustInstance(g, pebble.MPP(k, r, 2))
		rep, err := sched.Run(sched.Greedy{}, in)
		if err != nil {
			return false
		}
		// The classic bound counts I/O for the n-point FFT when s is far
		// smaller than n log n; at these toy sizes it is weak, so only
		// sanity-check non-negativity and that it does not exceed the
		// measured I/O by more than the constant slack factor 8 in this
		// regime (shape check, not constant check).
		bound := Lemma5IO(HongKungFFT(n, r*k), k)
		return bound >= 0 && float64(rep.IOMoves)*8 >= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGap(t *testing.T) {
	cases := []struct {
		lower, incumbent int64
		want             float64
	}{
		{10, 10, 0},           // proven optimal
		{10, 15, 0.5},         // 50% gap
		{10, 11, 0.1},         // 10% gap
		{0, 0, 0},             // trivially optimal at zero
		{10, -1, math.Inf(1)}, // no incumbent
		{0, 7, math.Inf(1)},   // no usable lower bound
		{-1, 7, math.Inf(1)},  // no lower bound at all
		{10, 5, math.Inf(1)},  // inconsistent bracket
	}
	for _, c := range cases {
		got := Gap(c.lower, c.incumbent)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("Gap(%d, %d) = %v, want +Inf", c.lower, c.incumbent, got)
			}
		} else if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Gap(%d, %d) = %v, want %v", c.lower, c.incumbent, got, c.want)
		}
	}
}

func TestFormatGap(t *testing.T) {
	cases := []struct {
		lower, incumbent int64
		want             string
	}{
		{-1, -1, "OPT unknown"},
		{0, -1, "OPT unknown"},
		{12, -1, "OPT ≥ 12 (no incumbent)"},
		{12, 12, "OPT = 12"},
		{0, 9, "OPT ≤ 9 (no lower bound)"},
		{10, 15, "OPT ∈ [10, 15] (gap 50.0%)"},
	}
	for _, c := range cases {
		if got := FormatGap(c.lower, c.incumbent); got != c.want {
			t.Errorf("FormatGap(%d, %d) = %q, want %q", c.lower, c.incumbent, got, c.want)
		}
	}
}
