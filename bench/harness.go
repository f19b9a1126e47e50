package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration // timed phase; a traced run splits it in two
	trace   bool
	// tiny swaps every workload's inputs for small ones, so the smoke
	// test runs all five in seconds.
	tiny bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// A workload is one set of inputs the benchmark runs. The harness calls
// setup opts.setups times (closing in between), then measure once
// untraced — and, in a traced run, once more with a tracer — then check
// and, when traced, layers.
type workload interface {
	// setup builds the workload's inputs and state. It is timed.
	setup() error
	// measure runs the timed phase: whole passes until d has elapsed,
	// at least one. With a non-nil tracer it records spans around every
	// call into a layer.
	measure(d time.Duration, tr *tracer) *phase
	// check runs the correctness checks that follow the last phase.
	check(p *phase)
	// layers adds the per-layer metrics of the traced phase p. It may
	// run extra untimed probes.
	layers(p *phase, spans []span, m metrics)
	// close releases what setup built.
	close()
}

// workloadSpec names a workload and says why the benchmark runs it.
type workloadSpec struct {
	name, why string
	make      func(o options) workload
}

var registry = []workloadSpec{
	{"solve-hard", "exact search at 10^5 states, deterministic and async: hashtab, heuristic and the sharded engines; bypasses server, cache and schedulers", newSolveHard},
	{"serve-cold", "closed-loop jobs over loopback HTTP that all miss the solve cache, so search runs under server concurrency", newServeCold},
	{"serve-hot", "closed-loop repeats of a primed pool that all hit the cache: HTTP, Build, job store and encoding, no search", newServeHot},
	{"sched-1m", "greedy and partitioned schedules of 10^6-node DAGs, replay-validated; bypasses opt, server and cache", newSched1M},
	{"suite", "the full experiment registry: thousands of tiny solves and schedules where per-call set-up dominates", newSuite},
}

func lookup(name string) (workloadSpec, bool) {
	for _, s := range registry {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints — the same four for
// every workload; README.md gives each workload's pass and operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints. A workload that does
// not reach a layer reports its metrics as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.submit_ms.p50", "ms"}, {"server.submit_ms.tail", "ms"},
		{"server.result_ms.p50", "ms"}, {"server.result_ms.tail", "ms"},
		{"server.queue_wait_ms.p50", "ms"}, {"server.queue_wait_ms.tail", "ms"},
		{"server.solve_ms.p50", "ms"}, {"server.solve_ms.tail", "ms"},
		{"server.polls_per_job", "count"},
		{"server.handler_us.submit", "us"}, {"server.handler_us.result", "us"},
		{"server.store_us", "us"}, {"server.store_jobs", "count"},
		{"server.build_us", "us"}, {"server.encode_us", "us"}, {"server.rejected", "count"},
		{"cache.hit_ratio", "ratio"}, {"cache.key_us", "us"}, {"cache.entries", "count"}, {"cache.bytes", "B"},
		{"opt.states.grid3x3", "count"}, {"opt.states.pyramid4", "count"}, {"opt.states.fft2", "count"},
		{"opt.states_per_s.det", "1/s"}, {"opt.states_per_s.async", "1/s"},
		{"opt.pruned_ratio", "ratio"}, {"opt.async_states_ratio", "ratio"}, {"opt.reexpanded_ratio", "ratio"},
		{"opt.speedup.det", "ratio"}, {"opt.speedup.async", "ratio"},
		{"opt.root_lower_us", "us"}, {"opt.partial_ratio", "ratio"},
		{"opt.allocs_per_solve", "count"}, {"opt.bytes_per_solve", "B"}, {"opt.ceiling_frac", "ratio"},
		{"hashtab.ceiling_states_per_s", "1/s"},
		{"sched.allocs_per_node", "count"}, {"sched.bytes_per_node", "B"}, {"sched.cost_ratio", "ratio"},
		{"pebble.replay_ns_per_move", "ns"},
		{"bounds.certified_lower_ms", "ms"},
		{"gen.build_s", "s"},
		{"trace_overhead_pct", "%"},
	}
	for _, n := range []string{"1e4", "1e6"} {
		for _, op := range []string{"insert", "find_hit", "find_miss"} {
			defs = append(defs, metricDef{"hashtab." + op + "_ns." + n, "ns"})
		}
	}
	for _, row := range schedRowNames {
		defs = append(defs, metricDef{"sched.ns_per_node." + row, "ns"})
	}
	for i := 1; i <= 19; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("exp.ms.E%02d", i), "ms"})
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{l + ".self_share", "ratio"})
	}
	return defs
}()

// layerMetric reports whether name is a per-layer metric. Per-instance
// metrics exist for the full-size instances only.
func layerMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// traceLayers are the layers spans are recorded in: the repository's
// modules, plus http (the loopback transport between client and
// handler) and bench (the client's own time, backoff sleeps included).
var traceLayers = []string{"bench", "http", "server", "cache", "opt", "hashtab", "sched", "pebble", "bounds", "gen", "exp"}

// phase is what one timed phase measured.
type phase struct {
	passS     float64   // seconds per pass of the workload's fixed work
	opsMS     []float64 // latency of every user-visible operation
	attempted int
	failed    int
	failures  []string
	// extra holds the workload's own end-to-end figures (solve_det_s,
	// jobs_per_s, job latency percentiles, …) for the report file.
	extra map[string]any
}

func newPhase() *phase { return &phase{extra: make(map[string]any)} }

// fail counts one failed operation or check and keeps its description.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// report is everything one invocation measured; the report file holds
// it in full, the last stdout line its driver-facing subset.
type report struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Env       env            `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	FailRatio float64        `json:"fail_ratio"`
	Failures  []string       `json:"failures,omitempty"`
	SetupS    []float64      `json:"setup_samples_s"`
	Ops       dist           `json:"ops_ms"`
	Metrics   metrics        `json:"metrics"`
	Extra     map[string]any `json:"extra"`
	Layers    []layerRow     `json:"layers,omitempty"`
	Dropped   int            `json:"spans_dropped,omitempty"`

	spans []span
}

// line is the last line of standard output.
type line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// execute runs one workload under o and returns its report. An error
// means the workload could not be set up; failed operations and checks
// are in the report instead.
func execute(s workloadSpec, o options) (*report, error) {
	w := s.make(o)
	defer w.close()
	rep := &report{Workload: s.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Env: currentEnv(), Metrics: metrics{}}
	for i := 0; i < max(o.setups, 1); i++ {
		w.close()
		runtime.GC()
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", s.name, err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())
	}
	runtime.GC()
	d := o.seconds
	if o.trace {
		d /= 2
	}
	p := w.measure(d, nil)
	last := p
	var tr *tracer
	var tp *phase
	if o.trace {
		runtime.GC()
		tr = newTracer()
		tp = w.measure(d, tr)
		last = tp
	}
	w.check(last)

	rep.Ops = summarize(p.opsMS)
	rep.Extra = p.extra
	if !o.trace {
		rep.Metrics.set("setup_s", median(rep.SetupS), "s")
		rep.Metrics.set("pass_s", p.passS, "s")
		rep.Metrics.set("op_p50_ms", median(p.opsMS), "ms")
		rep.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		rep.spans, rep.Dropped = tr.finish()
		rep.Layers = layerTable(rep.spans)
		for _, l := range rep.Layers {
			rep.Metrics.set(l.Layer+".self_share", l.SelfShare, "ratio")
		}
		w.layers(tp, rep.spans, rep.Metrics)
		if p.passS > 0 {
			rep.Metrics.set("trace_overhead_pct", (tp.passS/p.passS-1)*100, "%")
		}
		rep.Extra["traced"] = tp.extra
	}
	if err := conform(rep.Metrics, o.trace); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	for _, ph := range []*phase{p, tp} {
		if ph != nil {
			rep.Attempted += ph.attempted
			rep.Failed += ph.failed
			rep.Failures = append(rep.Failures, ph.failures...)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.FailRatio = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	return rep, nil
}

// conform makes m hold exactly the metrics of the run's kind: unset
// per-layer metrics become 0, any other difference is a harness bug.
func conform(m metrics, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	known := make(map[string]string, len(defs))
	for _, d := range defs {
		known[d.name] = d.unit
		got, ok := m[d.name]
		switch {
		case !ok && traced:
			m.set(d.name, 0, d.unit)
		case !ok:
			return fmt.Errorf("metric %s not measured", d.name)
		case got.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, got.Unit, d.unit)
		}
	}
	for name := range m {
		if _, ok := known[name]; !ok {
			return fmt.Errorf("metric %s is not in the metric tables", name)
		}
	}
	return nil
}

// writeReport writes the report (and, for a traced run, the spans) under
// dir and prints a readable summary to w.
func writeReport(rep *report, dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := rep.Workload
	if rep.Trace {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(dir, name+".json"), rep); err != nil {
		return err
	}
	if rep.Trace {
		doc := struct {
			Workload string     `json:"workload"`
			Seed     int64      `json:"seed"`
			Dropped  int        `json:"spans_dropped"`
			Spans    []span     `json:"spans"`
			Layers   []layerRow `json:"layers"`
		}{rep.Workload, rep.Seed, rep.Dropped, rep.spans, rep.Layers}
		if err := writeJSON(filepath.Join(dir, "trace-"+rep.Workload+".json"), doc); err != nil {
			return err
		}
	}
	summary(rep, w)
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// summary prints the report for a reader: environment, verdict, every
// metric with its unit, the workload's own figures and, when traced,
// the per-layer table.
func summary(rep *report, w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "== %s  seed=%d  %.0fs  trace=%v  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d fail_ratio=%g\n", rep.Correct, rep.Attempted, rep.Failed, rep.FailRatio)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	keys := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(rep.Extra[k]) // plain numbers and maps: cannot fail
		fmt.Fprintf(w, "  %-36s %s\n", k, b)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "  %-8s %8s %12s %12s %8s\n", "layer", "spans", "total_ms", "self_ms", "share")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "  %-8s %8d %12.3f %12.3f %8.4f\n", l.Layer, l.Spans, l.TotalMS, l.SelfMS, l.SelfShare)
		}
	}
}
