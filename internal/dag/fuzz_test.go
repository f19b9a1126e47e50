package dag

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzFromJSON: FromJSON, the decoder behind the job API's dag_json,
// rejects its input or returns a graph with the node count the input
// declares, whose MarshalJSON encoding decodes again to the same node
// count and edges; it never panics. The seed corpus in
// testdata/fuzz/FuzzFromJSON is MarshalJSON output of zoo graphs (chain
// 4, grid 3×3, pyramid(3), FFT(2), a depth-2 in-tree, two chains of two,
// a random 8-node DAG, zipper 2×3 and Figure 1's graph); this package
// cannot rebuild them, since internal/gen imports it. The malformed
// documents below join it. An input that declares more than 4096 nodes
// is skipped, a memory guard for the fuzzer: FromJSON allocates per
// node, up to the 2³¹−1 NodeID limit.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range []string{
		"", "not json", "null", "{}", `{"n":0,"edges":[]}`, `{"n":-1,"edges":[]}`,
		`{"n":2,"edges":[[0,0]]}`, `{"n":2,"edges":[[0,1],[0,1]]}`, `{"n":2,"edges":[[0,1],[1,0]]}`,
		`{"n":2,"edges":[[0,5]]}`, `{"n":2,"edges":[[-1,1]]}`, `{"n":2,"edges":[[0]]}`,
		`{"n":1,"edges":[],"labels":[{"id":3,"label":"x"}]}`, `{"n":4097,"edges":[]}`,
		`{"n":2147483648,"edges":[]}`, `{"n":1.5,"edges":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var head struct {
			N int `json:"n"`
		}
		if json.Unmarshal(data, &head) == nil && head.N > 4096 {
			t.Skip("declares more than 4096 nodes")
		}
		g, err := FromJSON(data)
		if err != nil {
			return
		}
		if g.N() != head.N {
			t.Fatalf("input declares %d nodes, graph has %d", head.N, g.N())
		}
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		again, err := FromJSON(enc)
		if err != nil {
			t.Fatalf("re-encoding %q does not decode: %v", enc, err)
		}
		if again.N() != g.N() || !reflect.DeepEqual(again.Edges(), g.Edges()) {
			t.Fatalf("round trip moved the graph: %d nodes %v, then %d nodes %v", g.N(), g.Edges(), again.N(), again.Edges())
		}
	})
}

// FuzzReadText: ReadText, the reader of the text format (the CLIs'
// file: DAG spec), rejects its input or returns a graph with the node
// count its nodes line declares, whose WriteText output reads back to
// the same node count, edges and name; it never panics. The seed corpus
// in testdata/fuzz/FuzzReadText is WriteText output of the zoo graphs
// FuzzFromJSON is seeded with, and the malformed inputs below join it.
// An input whose first nodes line declares more than 4096 nodes is
// skipped, the same memory guard as FuzzFromJSON's.
func FuzzReadText(f *testing.F) {
	for _, seed := range []string{
		"", "nodes", "nodes 0", "nodes -1", "nodes x", "nodes 5x", "nodes 2 3", "nodes 4097",
		"nodes 2147483648", "edge 0 1\nnodes 2", "nodes 2\nnodes 2", "nodes 2\nedge 0",
		"nodes 2\nedge 0 1junk", "nodes 2\nedge 0 0", "nodes 2\nedge 0 1\nedge 0 1",
		"nodes 2\nedge 0 1\nedge 1 0", "nodes 2\nedge 0 5", "nodes 2\nedge -1 1",
		"name\nnodes 1", "name a b\nnodes 1", "nodes 2\nname late\nedge 0 1",
		"# comment\n\n  nodes 3 \n edge 0 2\r\n", "nodes 1\nlabel 0 x",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		declared := -1
		for _, line := range strings.Split(string(data), "\n") {
			if fields := strings.Fields(line); len(fields) == 2 && fields[0] == "nodes" {
				declared, _ = strconv.Atoi(fields[1])
				break
			}
		}
		if declared > 4096 {
			t.Skip("declares more than 4096 nodes")
		}
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.N() != declared {
			t.Fatalf("input declares %d nodes, graph has %d", declared, g.N())
		}
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("written text %q does not read back: %v", buf.String(), err)
		}
		if again.N() != g.N() || again.Name() != g.Name() || !reflect.DeepEqual(again.Edges(), g.Edges()) {
			t.Fatalf("round trip moved the graph: %q with %d nodes %v, then %q with %d nodes %v",
				g.Name(), g.N(), g.Edges(), again.Name(), again.N(), again.Edges())
		}
	})
}
