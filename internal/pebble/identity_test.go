package pebble

import (
	"reflect"
	"testing"
)

// TestParamsAppendWords pins the packed layout (K, R, G, ComputeCost,
// one-shot bit) and the identity property the fingerprint relies on: two
// Params encode identically iff they are ==.
func TestParamsAppendWords(t *testing.T) {
	p := Params{K: 2, R: 3, G: 5, ComputeCost: 1, OneShot: true}
	got := p.AppendWords([]uint64{7})
	want := []uint64{7, 2, 3, 5, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendWords = %v, want %v", got, want)
	}

	base := MPP(2, 3, 5)
	flips := []struct {
		name string
		q    Params
	}{
		{"K", Params{K: 3, R: 3, G: 5, ComputeCost: 1}},
		{"R", Params{K: 2, R: 4, G: 5, ComputeCost: 1}},
		{"G", Params{K: 2, R: 3, G: 6, ComputeCost: 1}},
		{"ComputeCost", Params{K: 2, R: 3, G: 5, ComputeCost: 0}},
		{"OneShot", Params{K: 2, R: 3, G: 5, ComputeCost: 1, OneShot: true}},
	}
	baseWords := base.AppendWords(nil)
	for _, f := range flips {
		if reflect.DeepEqual(f.q.AppendWords(nil), baseWords) {
			t.Errorf("flipping %s did not change the packed words", f.name)
		}
	}
	if !reflect.DeepEqual(base.AppendWords(nil), MPP(2, 3, 5).AppendWords(nil)) {
		t.Errorf("equal Params encode differently")
	}
}

// TestStrategyClone: a deep copy — changing the clone's actions or
// appending to it never reaches the original, and nil clones to nil.
func TestStrategyClone(t *testing.T) {
	var nilStrat *Strategy
	if nilStrat.Clone() != nil {
		t.Error("nil.Clone() != nil")
	}

	orig := strategyOf(Compute(At(0, 1), At(1, 2)), Write(At(0, 1)))
	snapshot := strategyOf(Compute(At(0, 1), At(1, 2)), Write(At(0, 1)))

	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatalf("Clone = %+v, want %+v", c, orig)
	}
	c.Move(0).Actions[0].Node = 99 // callers must not; this shows no sharing
	c.Append(Read(At(1, 1)))
	if !reflect.DeepEqual(orig, snapshot) {
		t.Errorf("changing the clone reached the original:\n got:  %+v\n want: %+v", orig, snapshot)
	}
}
