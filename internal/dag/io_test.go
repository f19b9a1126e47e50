package dag

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || !reflect.DeepEqual(g2.Edges(), g.Edges()) || g2.Name() != g.Name() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
}

func TestJSONLabels(t *testing.T) {
	b := NewBuilder("lab")
	v := b.AddLabeledNode("x")
	w := b.AddNode()
	b.AddEdge(v, w)
	g := b.MustBuild()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Label(v) != "x" {
		t.Fatal("label lost in round trip")
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := FromJSON([]byte(`{"n": 1, "edges": [[0, 7]]}`)); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := FromJSON([]byte(`{"n": 2, "edges": [], "labels": [{"id": 9, "label": "x"}]}`)); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := FromJSON([]byte(`{"n": -5, "edges": []}`)); err == nil {
		t.Error("negative node count accepted")
	}
	// One past the NodeID range: rejected before AddNodes, which would
	// otherwise allocate 8 GB of IDs and then panic in AddNode.
	if _, err := FromJSON([]byte(`{"n": 2147483648, "edges": []}`)); err == nil || !strings.Contains(err.Error(), "2^31-1") {
		t.Errorf("node count 2^31: err %v, want the NodeID limit named", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g2.Edges(), g.Edges()) || g2.Name() != "diamond" {
		t.Fatal("text round trip mismatch")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"edge 0 1",          // edge before nodes
		"nodes 2\nedge 0",   // malformed edge
		"nodes 2\nfoo",      // unknown directive
		"nodes 2\nnodes 3",  // duplicate nodes
		"",                  // missing nodes
		"nodes x",           // bad count
		"nodes 2\nedge 0 5", // out of range (caught at Build)
		"nodes",             // no count
		"nodes -3",          // negative count
		"nodes 2147483648",  // past the NodeID range, refused before AddNodes
		"nodes 2 3",         // extra argument
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nname g\nnodes 2\n edge 0 1 \n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatal("comment handling broke parse")
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "0 -> 1", "2 -> 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestStringSummary(t *testing.T) {
	g := diamond(t)
	s := g.String()
	for _, want := range []string{"n=4", "m=4", "0→1,2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestUnionAndSerial(t *testing.T) {
	g := diamond(t)
	u, off := Union("u", g, g)
	if u.N() != 8 || u.M() != 8 {
		t.Fatalf("union n=%d m=%d", u.N(), u.M())
	}
	if off[1] != 4 {
		t.Fatalf("union offsets = %v", off)
	}
	if !u.HasEdge(4, 5) {
		t.Error("union missing shifted edge")
	}

	s, soff := Serial("s", g, g)
	if s.N() != 8 || s.M() != 9 { // 4+4 edges + 1 sink→source bridge
		t.Fatalf("serial n=%d m=%d", s.N(), s.M())
	}
	if !s.HasEdge(soff[0]+3, soff[1]+0) {
		t.Error("serial missing bridge edge")
	}
	if got := s.CriticalPathLength(); got != 6 {
		t.Fatalf("serial depth = %d", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t)
	sub, remap := InducedSubgraph("sub", g, []NodeID{0, 1, 3})
	if sub.N() != 3 || sub.M() != 2 { // edges 0→1 and 1→3 survive
		t.Fatalf("sub n=%d m=%d", sub.N(), sub.M())
	}
	if remap[2] != -1 || remap[0] == -1 {
		t.Fatalf("remap = %v", remap)
	}
	// duplicate keep entries are tolerated
	sub2, _ := InducedSubgraph("sub2", g, []NodeID{1, 1, 1})
	if sub2.N() != 1 {
		t.Fatalf("dup keep n=%d", sub2.N())
	}
}
