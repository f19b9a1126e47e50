package pebble

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

func TestStrategyJSONRoundTrip(t *testing.T) {
	b := dag.NewBuilder("g")
	b.AddNewChain(3)
	g := b.MustBuild()
	in := MustInstance(g, MPP(2, 2, 3))
	sb := NewBuilder(in)
	sb.Compute(0, 0)
	sb.Save(0, 0)
	sb.Read(At(1, 0))
	sb.Compute(1, 1)
	sb.DropRed(1, 0)
	sb.Compute(1, 2)
	sb.Delete(Blue(0))
	s := sb.Strategy()

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip: %d moves, want %d", got.Len(), s.Len())
	}
	for i := range s.Len() {
		if s.Move(i).String() != got.Move(i).String() {
			t.Fatalf("move %d mismatch: %s vs %s", i, s.Move(i), got.Move(i))
		}
	}
	// The round-tripped strategy must still replay identically.
	want, err := Replay(in, s)
	if err != nil {
		t.Fatal(err)
	}
	have, err := Replay(in, got)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cost != have.Cost || want.IOActions != have.IOActions {
		t.Fatal("round-tripped strategy replays differently")
	}
}

func TestStrategyJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`[{"k":"x","a":[[0,0]]}]`)); err == nil {
		t.Error("unknown kind accepted")
	}
	// Valid JSON, invalid semantics: replay is the gatekeeper.
	s, err := ReadJSON(strings.NewReader(`[{"k":"c","a":[[0,99]]}]`))
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder("g")
	b.AddNewChain(2)
	in := MustInstance(b.MustBuild(), MPP(1, 2, 1))
	if _, err := Replay(in, s); err == nil {
		t.Error("out-of-range strategy passed replay")
	}
}

// goldenJSON is WriteJSON's output for goldenStrategy: the wire format,
// which strategy files and the server's result documents use.
const goldenJSON = `[{"k":"c","a":[[0,0],[1,1]]},{"k":"w","a":[[0,0]]},{"k":"r","a":[[1,0]]},` +
	`{"k":"c","a":[[1,2]]},{"k":"c","a":[]},{"k":"d","a":[[0,0],[-1,0]]},{"k":"d","a":[[1,1],[1,2],[1,0]]}]` + "\n"

// goldenStrategy holds every kind, parallel moves, a blue deletion and an
// empty move.
func goldenStrategy() *Strategy {
	return strategyOf(Compute(At(0, 0), At(1, 1)), Write(At(0, 0)), Read(At(1, 0)), Compute(At(1, 2)),
		Move{Kind: OpCompute}, Delete(At(0, 0), Blue(0)), Delete(At(1, 1), At(1, 2), At(1, 0)))
}

func TestStrategyJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStrategy().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenJSON {
		t.Fatalf("WriteJSON =\n%s\nwant\n%s", buf.String(), goldenJSON)
	}
	got, err := ReadJSON(strings.NewReader(goldenJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenStrategy()) {
		t.Fatalf("ReadJSON(golden) = %v", got)
	}
}

// FuzzReadJSON: ReadJSON rejects its input or returns a strategy whose
// WriteJSON encoding is a fixed point of decoding and re-encoding, and
// replaying that strategy returns instead of panicking. The seed corpus
// in testdata/fuzz/FuzzReadJSON is WriteJSON output of Greedy,
// Partitioned{levels} and Baseline strategies on grid 3×3 and FFT(2) at
// MPP(2,4,2), the instances below; this package cannot rebuild them,
// since internal/sched imports it.
func FuzzReadJSON(f *testing.F) {
	for _, seed := range []string{
		goldenJSON, "", "not json", "[", "{}", "null", "[null]", `[{"k":"x","a":[[0,0]]}]`,
		`[{"k":"c","a":null}]`, `[{"k":"c","a":[[0]]}]`, `[{"k":"c","a":[[0,1,2]]}]`,
		`[{"k":"c","a":[[2147483648,0]]}]`, `[{"k":"d","a":[[-2,0]]}]`, `[{"k":"c","a":[[0,-1]]}]`,
		`[{"k":"c","a":[[0,0],[0,1]]}]`, `[{"k":"c","a":[[0,0]]}] trailing`,
	} {
		f.Add([]byte(seed))
	}
	ins := []*Instance{
		MustInstance(gen.Grid2D(3, 3), MPP(2, 4, 2)),
		MustInstance(gen.FFT(2), MPP(2, 4, 2)),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc, reenc bytes.Buffer
		if err := s.WriteJSON(&enc); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoding %q does not decode: %v", enc.Bytes(), err)
		}
		if err := again.WriteJSON(&reenc); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), reenc.Bytes()) || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc.Bytes(), reenc.Bytes())
		}
		for _, in := range ins {
			_, _, _ = ReplayPartial(in, s) // an error is fine; a panic is not
		}
	})
}
