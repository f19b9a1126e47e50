package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps; later spans are counted
// as dropped. A traced serve-hot phase completes ~10⁵ jobs of ~8 spans
// each, far more than the per-layer figures need.
const maxSpans = 100_000

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Name is "<layer>.<operation>"; Req ties
// the spans of one request (the job ID on serve-*) together. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// client reports whether the span was recorded on the client side of
// the loopback connection. Server-side work never causes client work,
// so a client span never takes a server span as parent.
func (s *span) client() bool {
	l := s.layer()
	return l == "bench" || l == "http"
}

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer records nothing, so untraced code paths call it unguarded.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span // mpp:guardedby mu
	dropped int    // mpp:guardedby mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records the span [start, end] of name for request req.
func (t *tracer) add(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// finish returns the recorded spans with IDs, parents and self times
// filled in, and the number of spans dropped past maxSpans.
func (t *tracer) finish() ([]span, int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	link(spans)
	selfTimes(spans)
	return spans, dropped
}

// link numbers the spans and gives each the innermost span of the same
// request whose interval contains it as parent (never a server span for
// a client span). Spans are recorded on both sides of the loopback
// connection and by server goroutines, so containment within a request
// is the one rule that holds for all.
func link(spans []span) {
	byReq := make(map[string][]int)
	var reqs []string
	for i := range spans {
		spans[i].ID = i + 1
		spans[i].Parent = 0
		r := spans[i].Req
		if r == "" {
			continue
		}
		if _, ok := byReq[r]; !ok {
			reqs = append(reqs, r)
		}
		byReq[r] = append(byReq[r], i)
	}
	for _, r := range reqs {
		idx := byReq[r]
		sort.SliceStable(idx, func(a, b int) bool {
			x, y := &spans[idx[a]], &spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			return x.End > y.End
		})
		var open []int
		for _, i := range idx {
			for len(open) > 0 && spans[open[len(open)-1]].End <= spans[i].Start {
				open = open[:len(open)-1]
			}
			for j := len(open) - 1; j >= 0; j-- {
				if spans[i].client() && !spans[open[j]].client() {
					continue
				}
				if spans[open[j]].End >= spans[i].End {
					spans[i].Parent = spans[open[j]].ID
					break
				}
			}
			open = append(open, i)
		}
	}
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover. Children of one parent may
// overlap each other (concurrent server work), so the covered part is
// the length of their union.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := lo, lo // the merged run being extended; empty at first
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// layerRow is one line of the per-layer table: how many spans the layer
// has, their summed duration and self time, and the layer's share of
// all self time in the run.
type layerRow struct {
	Layer     string  `json:"layer"`
	Spans     int     `json:"spans"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfShare float64 `json:"self_share"`
}

// layerTable aggregates linked spans by layer, sorted by layer name.
func layerTable(spans []span) []layerRow {
	layers := make(map[string]*layerRow)
	var all int64
	for i := range spans {
		s := &spans[i]
		all += s.Self
		l := layers[s.layer()]
		if l == nil {
			l = &layerRow{Layer: s.layer()}
			layers[s.layer()] = l
		}
		l.Spans++
		l.TotalMS += float64(s.End-s.Start) / 1e6
		l.SelfMS += float64(s.Self) / 1e6
	}
	var lrows []layerRow
	for _, l := range layers {
		if all > 0 {
			l.SelfShare = l.SelfMS * 1e6 / float64(all)
		}
		lrows = append(lrows, *l)
	}
	sort.Slice(lrows, func(a, b int) bool { return lrows[a].Layer < lrows[b].Layer })
	return lrows
}

// durations returns the durations in ms of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].End-spans[i].Start)/1e6)
		}
	}
	return out
}
