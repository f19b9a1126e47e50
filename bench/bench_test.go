package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must
// honour: its workloads and the metrics each kind of run prints.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var tinyOptions = options{seed: 1, seconds: 50 * time.Millisecond, tiny: true, setups: 1}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// requires every metric BENCHMARK.json names to be emitted with its unit
// — nonzero for the end-to-end ones — and every output to check out.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(registry) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(registry))
	}
	for i, w := range b.Workloads {
		if w.Name != registry[i].name || w.Why != registry[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, w.Name, w.Why, registry[i].name, registry[i].why)
		}
	}
	for _, s := range registry {
		for _, traced := range []bool{false, true} {
			o := tinyOptions
			o.trace = traced
			rep, err := execute(s, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%q", s.name, traced, rep.Correct, rep.Attempted, rep.Failures)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", s.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", s.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", s.name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", s.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestWrongOptimumFails corrupts one expected optimum and requires the
// run to count failures and exit nonzero after printing its result.
func TestWrongOptimumFails(t *testing.T) {
	rows := append([]solveRow(nil), tinySolveRows...)
	rows[0].want++
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = []workloadSpec{{name: "solve-hard", why: saved[0].why, make: func(options) workload {
		return &solveHard{rows: rows, hashN: []int{1e4}}
	}}}

	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "solve-hard", "--seconds", "0.05", "--out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 with a wrong optimum; stderr:\n%s", stderr.String())
	}
	l, err := lastLine(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if l.Correct || l.Failed == 0 || float64(l.Failed)/float64(l.Attempted) <= 0 {
		t.Errorf("result line %+v: want correct=false and fail_ratio > 0", l)
	}
	if !strings.Contains(stderr.String(), "optimum") {
		t.Errorf("stderr does not name the wrong optimum:\n%s", stderr.String())
	}
}
