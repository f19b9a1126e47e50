package main

import (
	"bytes"
	"testing"

	"repro/internal/cache"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 99, true, 990},
		{999, 99, false, 0},
		{10000, 99.9, true, 9990},
		{9999, 99.9, false, 0},
		{100, 90, true, 90},
		{99, 90, false, 0},
		{5, 50, true, 3}, // the median needs no samples beyond it
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, p%g) = %g, %v; want %g, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if p, v, ok := tail(seq(1500)); !ok || p != 99 || v != 1485 {
		t.Errorf("tail(n=1500) = p%g %g %v, want p99 1485 true", p, v, ok)
	}
	if _, _, ok := tail(seq(50)); ok {
		t.Errorf("tail(n=50) reported a percentile with fewer than %d samples beyond it", minBeyond)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// job  [0,100] ─┬─ submit [10,40] ── handler [20,30] ── store [22,24]
	//               ├─ solve  [35,90]   (server side, overlaps submit)
	//               └─ poll   [50,60]   (client side: not solve's child)
	// other request [0,50] is unrelated.
	spans := []span{
		{Name: "bench.job", Req: "a", Start: 0, End: 100},
		{Name: "http.submit", Req: "a", Start: 10, End: 40},
		{Name: "server.handler.submit", Req: "a", Start: 20, End: 30},
		{Name: "server.store.put", Req: "a", Start: 22, End: 24},
		{Name: "opt.solve", Req: "a", Start: 35, End: 90},
		{Name: "http.poll", Req: "a", Start: 50, End: 60},
		{Name: "bench.job", Req: "b", Start: 0, End: 50},
	}
	link(spans)
	selfTimes(spans)
	want := []struct {
		parent int
		self   int64
	}{
		{0, 100 - 80}, // children cover [10,40] ∪ [35,90] ∪ [50,60] = [10,90]
		{1, 30 - 10},
		{2, 10 - 2},
		{3, 2},
		{1, 55},
		{1, 10},
		{0, 50},
	}
	for i, w := range want {
		if spans[i].Parent != w.parent || spans[i].Self != w.self {
			t.Errorf("%s (req %s): parent %d self %d, want parent %d self %d",
				spans[i].Name, spans[i].Req, spans[i].Parent, spans[i].Self, w.parent, w.self)
		}
	}
	layers := layerTable(spans)
	total := 0.0
	for _, l := range layers {
		total += l.SelfShare
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("layer self shares sum to %g, want 1", total)
	}
}

func TestServeStreamsAreSeeded(t *testing.T) {
	bodies := func(jobs []serveJob) [][]byte {
		var out [][]byte
		for _, j := range jobs {
			out = append(out, j.body)
		}
		return out
	}
	same := func(a, b [][]byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	cold := func(seed int64) [][]byte {
		jobs, err := coldStream(seed, coldTemplates, 9)
		if err != nil {
			t.Fatal(err)
		}
		return bodies(jobs)
	}
	// The hot stream is the pool plus the seeded draw of pool entries.
	hot := func(seed int64) [][]byte {
		pool, err := hotPool(hotTemplates)
		if err != nil {
			t.Fatal(err)
		}
		s := &serveBench{hot: true, seed: seed, jobs: pool}
		out := bodies(pool)
		for i := 0; i < 1000; i++ {
			out = append(out, pool[s.jobAt(i)].body)
		}
		return out
	}
	for name, stream := range map[string]func(int64) [][]byte{"serve-cold": cold, "serve-hot": hot} {
		if !same(stream(7), stream(7)) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if same(stream(7), stream(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestServeColdKeysAreDistinct(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		jobs, err := coldStream(seed, coldTemplates, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) < 500 {
			t.Errorf("seed %d: %d jobs, want an epoch of ≥ 500", seed, len(jobs))
		}
		seen := make(map[cache.Key]int)
		for i := range jobs {
			k, err := keyOf(&jobs[i].req)
			if err != nil {
				t.Fatal(err)
			}
			if j, ok := seen[k]; ok {
				t.Fatalf("seed %d: jobs %d and %d share cache key %v: %s and %s", seed, j, i, k, jobs[j].body, jobs[i].body)
			}
			seen[k] = i
		}
	}
}
