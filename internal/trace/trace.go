// Package trace renders pebbling strategies and cost reports for humans:
// one-line summaries, per-processor breakdowns, and step-by-step timelines
// of small strategies.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/pebble"
)

// Summary formats the headline numbers of a report in one line.
func Summary(in *pebble.Instance, rep *pebble.Report) string {
	return fmt.Sprintf(
		"cost=%d (io=%d, compute=%d) | moves: %d io, %d compute, %d delete | actions: %d io, %d compute (%d recomputed) | surplus=%.1f",
		rep.Cost, rep.IOCost, rep.ComputeCost,
		rep.IOMoves, rep.ComputeMoves, rep.DeleteMoves,
		rep.IOActions, rep.ComputeActions, rep.Recomputations,
		rep.Surplus(in.N(), in.K))
}

// PerProcessor writes a per-processor work/I/O/memory table.
func PerProcessor(w io.Writer, rep *pebble.Report) {
	fmt.Fprintf(w, "%-6s %10s %10s %10s\n", "proc", "computed", "io-ops", "peak-red")
	for p := range rep.PerProcComputed {
		fmt.Fprintf(w, "p%-5d %10d %10d %10d\n",
			p, rep.PerProcComputed[p], rep.PerProcIO[p], rep.MaxRedInUse[p])
	}
}

// Timeline writes the move sequence, one move per line, up to limit moves
// (0 means all). Intended for small gadget strategies.
func Timeline(w io.Writer, s *pebble.Strategy, limit int) {
	n := s.Len()
	if limit <= 0 || limit > n {
		limit = n
	}
	for i := 0; i < limit; i++ {
		fmt.Fprintf(w, "%5d  %s\n", i, s.Move(i))
	}
	if limit < n {
		fmt.Fprintf(w, "…      (%d more moves)\n", n-limit)
	}
}

// Gantt renders a compact per-processor activity strip for strategies of
// up to width costed moves: 'C' compute, 'W' write, 'R' read, '.' idle.
// Delete moves are skipped (they are free and instantaneous).
func Gantt(s *pebble.Strategy, k, width int) string {
	lines := make([]strings.Builder, k)
	steps := 0
	for i := range s.Len() {
		m := s.Move(i)
		if m.Kind == pebble.OpDelete {
			continue
		}
		if steps >= width {
			break
		}
		steps++
		active := map[int]byte{}
		var ch byte
		switch m.Kind {
		case pebble.OpCompute:
			ch = 'C'
		case pebble.OpWrite:
			ch = 'W'
		case pebble.OpRead:
			ch = 'R'
		}
		for _, a := range m.Actions {
			if p := int(a.Proc); p >= 0 && p < k {
				active[p] = ch
			}
		}
		for p := 0; p < k; p++ {
			if c, ok := active[p]; ok {
				lines[p].WriteByte(c)
			} else {
				lines[p].WriteByte('.')
			}
		}
	}
	var out strings.Builder
	for p := 0; p < k; p++ {
		fmt.Fprintf(&out, "p%d %s\n", p, lines[p].String())
	}
	return out.String()
}
