package dag

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// jsonGraph is the wire form of a Graph.
type jsonGraph struct {
	Name   string           `json:"name,omitempty"`
	N      int              `json:"n"`
	Edges  [][2]NodeID      `json:"edges"`
	Labels map[string]int32 `json:"-"` // unused; kept for clarity
	Label  []labeledNode    `json:"labels,omitempty"`
}

type labeledNode struct {
	ID    NodeID `json:"id"`
	Label string `json:"label"`
}

// MarshalJSON encodes the graph as {"name", "n", "edges", "labels"}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.name, N: g.N(), Edges: g.Edges()}
	if g.labels != nil {
		for v, l := range g.labels {
			if l != "" {
				jg.Label = append(jg.Label, labeledNode{NodeID(v), l})
			}
		}
	}
	return json.Marshal(jg)
}

// FromJSON decodes a graph previously encoded with MarshalJSON. A node
// count outside [0, 2³¹−1], the NodeID range, is an error, returned
// before any per-node allocation.
func FromJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("dag: decoding JSON: %w", err)
	}
	if jg.N < 0 {
		return nil, fmt.Errorf("dag: JSON node count %d is negative", jg.N)
	}
	if jg.N > math.MaxInt32 {
		return nil, fmt.Errorf("dag: JSON node count %d exceeds the 2^31-1 NodeID limit", jg.N)
	}
	b := NewBuilder(jg.Name)
	b.AddNodes(jg.N)
	for _, e := range jg.Edges {
		b.AddEdge(e[0], e[1])
	}
	for _, l := range jg.Label {
		if l.ID < 0 || int(l.ID) >= jg.N {
			return nil, fmt.Errorf("dag: JSON label on out-of-range node %d", l.ID)
		}
		b.SetLabel(l.ID, l.Label)
	}
	return b.Build()
}

// WriteDOT writes the graph in Graphviz DOT format.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=BT;\n", dotName(g.name))
	for v := 0; v < g.N(); v++ {
		if l := g.Label(NodeID(v)); l != "" {
			fmt.Fprintf(bw, "  %d [label=%q];\n", v, l)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -> %d;\n", e[0], e[1])
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func dotName(s string) string {
	if s == "" {
		return "dag"
	}
	return s
}

// WriteText writes the simple line-oriented text format:
//
//	# comment
//	name <name>
//	nodes <n>
//	edge <u> <v>
//
// Lines may appear in any order except that nodes must precede edges.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.name != "" {
		fmt.Fprintf(bw, "name %s\n", g.name)
	}
	fmt.Fprintf(bw, "nodes %d\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// ReadText parses the text format written by WriteText.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	name := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("dag: line %d: name wants 1 argument", lineNo)
			}
			name = fields[1]
		case "nodes":
			if b != nil {
				return nil, fmt.Errorf("dag: line %d: duplicate nodes directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("dag: line %d: nodes wants 1 argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return nil, fmt.Errorf("dag: line %d: bad nodes directive", lineNo)
			}
			b = NewBuilder("")
			b.AddNodes(n)
		case "edge":
			if b == nil {
				return nil, fmt.Errorf("dag: line %d: edge before nodes", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dag: line %d: edge wants 2 arguments", lineNo)
			}
			u, errU := strconv.ParseInt(fields[1], 10, 32)
			v, errV := strconv.ParseInt(fields[2], 10, 32)
			if errU != nil || errV != nil {
				return nil, fmt.Errorf("dag: line %d: bad edge endpoints", lineNo)
			}
			b.AddEdge(NodeID(u), NodeID(v))
		default:
			return nil, fmt.Errorf("dag: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dag: reading: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("dag: missing nodes directive")
	}
	b.name = name // a name line may follow the nodes line
	return b.Build()
}

// String renders a compact human-readable summary plus the adjacency of
// small graphs (full adjacency only when N ≤ 32).
func (g *Graph) String() string {
	st := g.ComputeStats()
	var b strings.Builder
	fmt.Fprintf(&b, "dag %q: n=%d m=%d sources=%d sinks=%d Δin=%d depth=%d",
		st.Name, st.N, st.M, st.Sources, st.Sinks, st.MaxIn, st.Depth)
	if g.N() <= 32 {
		b.WriteString(" {")
		first := true
		for u := 0; u < g.N(); u++ {
			if g.OutDegree(NodeID(u)) == 0 {
				continue
			}
			if !first {
				b.WriteString("; ")
			}
			first = false
			succs := make([]string, 0, g.OutDegree(NodeID(u)))
			for _, v := range g.Succ(NodeID(u)) {
				succs = append(succs, fmt.Sprint(v))
			}
			sort.Strings(succs)
			fmt.Fprintf(&b, "%d→%s", u, strings.Join(succs, ","))
		}
		b.WriteString("}")
	}
	return b.String()
}
