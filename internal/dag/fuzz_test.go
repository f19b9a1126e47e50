package dag

import (
	"encoding/json"
	"reflect"
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
