package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/server"
)

const (
	// maxStates is every serve job's state budget.
	maxStates = 10_000
	// jobTimeout bounds one job's submit → result; no job of either
	// workload comes near it.
	jobTimeout = 60 * time.Second
	// checkSample is how many serve-cold results are re-solved locally.
	checkSample = 64
)

// Cold-stream DAG templates: small members of the families mppserver
// users submit, sized so that most jobs finish in well under a
// millisecond and the largest stop at the state budget.
var coldTemplates = []string{
	"grid:2,2", "grid:2,3", "grid:2,4", "grid:3,3", "grid:3,4",
	"pyramid:2", "pyramid:3", "pyramid:4", "pyramid:5",
	"zipper:1,2", "zipper:1,3", "zipper:1,4", "zipper:2,2", "zipper:2,3", "zipper:2,4", "zipper:3,3", "zipper:3,4",
	"chains:2,2", "chains:2,3", "chains:2,4", "chains:2,5", "chains:3,2", "chains:3,3", "chains:3,4",
	"random:6,0.3,2,1", "random:6,0.3,2,2", "random:6,0.3,2,3",
	"random:8,0.3,2,1", "random:8,0.3,2,2", "random:8,0.3,2,3",
	"random:10,0.3,2,1", "random:10,0.3,2,2",
	"random:12,0.3,2,1", "random:12,0.3,2,2",
	"random:14,0.3,2,1",
}

// Hot-pool templates: cheap to prime, so set-up stays short.
var hotTemplates = []string{
	"grid:2,2", "grid:2,3", "grid:3,3", "pyramid:2", "pyramid:3",
	"zipper:1,2", "zipper:1,3", "zipper:1,4", "zipper:2,2",
	"chains:2,2", "chains:2,3", "chains:3,2",
	"random:6,0.3,2,1", "random:6,0.3,2,2", "random:8,0.3,2,1", "random:8,0.3,2,2",
}

var (
	tinyColdTemplates = []string{"grid:2,2", "chains:2,2", "zipper:1,2"}
	tinyHotTemplates  = []string{"grid:2,2", "chains:2,2"}
)

// serveJob is one prepared request: the body a client posts and the
// request it decodes to.
type serveJob struct {
	req  server.SubmitRequest
	body []byte
}

// keyOf is the solve cache's complete-result key of a request, derived
// the way the server's solve path derives it.
func keyOf(req *server.SubmitRequest) (cache.Key, error) {
	in, cfg, _, err := req.Build()
	if err != nil {
		return cache.Key{}, err
	}
	return cache.KeyOf(in, solverSubset(cfg)), nil
}

func solverSubset(cfg opt.Config) cache.SolverConfig {
	return cache.SolverConfig{
		Heuristic: uint8(cfg.Heuristic),
		Dominance: cfg.Dominance,
		Witness:   cfg.Witness,
		MaxStates: cfg.MaxStates,
	}.Normalize()
}

// addJob appends req to jobs unless a request with the same cache key
// is already there.
func addJob(jobs []serveJob, seen map[cache.Key]bool, req server.SubmitRequest) ([]serveJob, error) {
	k, err := keyOf(&req)
	if err != nil {
		return jobs, fmt.Errorf("%s: %w", req.DAG, err)
	}
	if seen[k] {
		return jobs, nil
	}
	seen[k] = true
	body, err := json.Marshal(req)
	if err != nil {
		return jobs, err
	}
	return append(jobs, serveJob{req: req, body: body}), nil
}

// coldStream returns one epoch of distinct serve-cold jobs: gs blocks,
// each holding every (template, k) cell once in a seeded order. Cell c
// runs at g = 1 + (b + off_c) mod gs in block b, with a seeded offset,
// so each block mixes g values and the epoch holds every (cell, g) pair
// exactly once. Every window of the stream thus has the same cells,
// which keeps the measured mix the same from seed to seed.
func coldStream(seed int64, templates []string, gs int) ([]serveJob, error) {
	rng := rand.New(rand.NewSource(seed))
	type cell struct {
		dag string
		k   int
	}
	var cells []cell
	for _, t := range templates {
		for k := 1; k <= 2; k++ {
			cells = append(cells, cell{t, k})
		}
	}
	off := make([]int, len(cells))
	for i := range off {
		off[i] = rng.Intn(gs)
	}
	seen := make(map[cache.Key]bool)
	var jobs []serveJob
	for b := 0; b < gs; b++ {
		for _, c := range rng.Perm(len(cells)) {
			req := server.SubmitRequest{DAG: cells[c].dag, K: cells[c].k, G: 1 + (b+off[c])%gs, MaxStates: maxStates}
			var err error
			if jobs, err = addJob(jobs, seen, req); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// hotPool returns the serve-hot pool: every template, alternating k
// and spreading g, once without and once with a witness. The pool is
// the same for every seed — its documents' sizes set the cost of a hit
// — and the seed draws the stream from it (jobAt).
func hotPool(templates []string) ([]serveJob, error) {
	seen := make(map[cache.Key]bool)
	var jobs []serveJob
	for i, t := range templates {
		k, g := 1+i%2, 1+(4*i)%9
		for _, witness := range []bool{false, true} {
			req := server.SubmitRequest{DAG: t, K: k, G: g, MaxStates: maxStates, Witness: witness}
			var err error
			if jobs, err = addJob(jobs, seen, req); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// outcome is what the client saw of one job.
type outcome struct {
	job      int // index into serveBench.jobs
	id       string
	body     []byte // the fetched result document (serve-cold only)
	status   string // the result's status
	lat      time.Duration
	end      time.Time // when the client finished with the job
	polls    int
	rejected bool
	err      error
}

// serveBench drives an in-process mppserver — the daemon's wiring: a
// default solve cache, default workers and queue — behind httptest over
// loopback, from a closed loop of clients. Each client submits, polls
// GET /v1/jobs/{id}/result with backoff, and fetches the result before
// its next job.
type serveBench struct {
	hot     bool
	seed    int64
	clients int
	stream  func() ([]serveJob, error)
	// perPass is the number of completed jobs pass_s is given for.
	perPass int
	// perServer is how many jobs one server instance takes before the
	// benchmark replaces it (untimed): the cold epoch length, so every
	// job misses, or the hot cap, so the job store — which keeps every
	// job — stays the same size however fast the server is.
	perServer int
	jobs      []serveJob
	primed    [][]byte // serve-hot: the result document of each pool job
	statuses  []string // serve-hot: the result status of each pool job

	// The running server.
	sc     *opt.SolveCache
	srv    *server.Server
	mem    *server.MemStore // set when the store is wrapped for tracing
	hs     *httptest.Server
	hcs    []*http.Client // one per client, each with one connection
	cancel context.CancelFunc
	served int // jobs this server has taken
	base   int // jobs earlier servers took (serve-hot stream position)

	// The last phase, for check and layers.
	outs       []outcome
	hits       int64
	entries    int
	cacheBytes int64
	storeJobs  int
	rejected   int
	checked    []*opt.Result // serve-cold results re-solved by check
}

func newServeCold(o options) workload {
	templates, gs := coldTemplates, 9
	if o.tiny {
		templates, gs = tinyColdTemplates, 2
	}
	return &serveBench{seed: o.seed, clients: clients(), perPass: 100, stream: func() ([]serveJob, error) {
		return coldStream(o.seed, templates, gs)
	}}
}

func newServeHot(o options) workload {
	templates, perPass, perServer := hotTemplates, 10_000, 20_000
	if o.tiny {
		templates, perPass, perServer = tinyHotTemplates, 20, 200
	}
	return &serveBench{hot: true, seed: o.seed, clients: clients(), perPass: perPass, perServer: perServer, stream: func() ([]serveJob, error) {
		return hotPool(templates)
	}}
}

// clients is the closed loop's size: two, or one on a one-CPU machine.
func clients() int { return min(2, runtime.NumCPU()) }

func (s *serveBench) setup() error {
	jobs, err := s.stream()
	if err != nil {
		return err
	}
	s.jobs = jobs
	if !s.hot {
		s.perServer = len(jobs)
	}
	return s.start(nil)
}

// start replaces the running server with a fresh one (empty cache and
// store) and, on serve-hot, primes it with the pool. With a tracer the
// handler and the job store are wrapped to record spans.
func (s *serveBench) start(tr *tracer) error {
	s.stop()
	s.sc = opt.NewSolveCache(cache.Options{})
	o := server.Options{Cache: s.sc}
	s.mem = nil
	if tr != nil {
		s.mem = server.NewMemStore()
		solve := "opt.solve"
		if s.hot {
			solve = "cache.hit"
		}
		o.Store = tracedStore{mem: s.mem, tr: tr, solve: solve}
	}
	s.srv = server.New(o)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.srv.Start(ctx)
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = &tracedHandler{h: h, tr: tr}
	}
	s.hs = httptest.NewServer(h)
	s.hcs = make([]*http.Client, s.clients)
	for c := range s.hcs {
		s.hcs[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	s.served = 0
	if !s.hot {
		return nil
	}
	// Each server primes its own cache; hits are checked against what
	// this server primed. (Witness strategies of a GOMAXPROCS-wide
	// deterministic solve can differ between solves of one request, so
	// two servers' primed documents are not compared.)
	s.primed = make([][]byte, len(s.jobs))
	s.statuses = make([]string, len(s.jobs))
	for j := range s.jobs {
		o := s.fetch(s.hcs[0], nil, j)
		if o.err != nil {
			return fmt.Errorf("prime %s: %w", s.jobs[j].body, o.err)
		}
		s.primed[j], s.statuses[j] = o.body, o.status
	}
	return nil
}

// fold adds the running server's cache hits to the phase's and keeps
// its cache and store sizes. Every server serves one phase only.
func (s *serveBench) fold() {
	st := s.sc.Stats()
	s.hits += st.Hits + st.PartialHits
	s.entries, s.cacheBytes = st.Entries, st.Bytes
	if s.mem != nil {
		if jobs, err := s.mem.List(); err == nil {
			s.storeJobs = len(jobs)
		}
	}
}

// stop shuts the running server down.
func (s *serveBench) stop() {
	if s.hs == nil {
		return
	}
	s.hs.Close()
	s.cancel()
	s.srv.Wait()
	for _, hc := range s.hcs {
		hc.CloseIdleConnections()
	}
	s.hs = nil
}

func (s *serveBench) close() { s.stop() }

// jobAt maps the i-th job a server takes to a job index: the cold epoch
// in order, or a seeded draw from the hot pool.
func (s *serveBench) jobAt(i int) int {
	if !s.hot {
		return i
	}
	return int(splitmix(uint64(s.seed)<<32^uint64(s.base+i)) % uint64(len(s.jobs)))
}

func (s *serveBench) measure(d time.Duration, tr *tracer) *phase {
	p := newPhase()
	s.outs, s.hits, s.base, s.checked, s.rejected = nil, 0, 0, nil, 0
	var wall time.Duration
	var rates []float64   // jobs/s of each server instance
	var windows []float64 // seconds per perPass completions
	servers := 0
	for servers == 0 || wall < d {
		// A fresh server for the traced phase (wrapped for tracing) and
		// whenever the current one has taken its share, untimed.
		if (tr != nil && servers == 0) || s.served >= s.perServer {
			if servers > 0 {
				s.fold()
			}
			s.base += s.served
			// Drop the old server's store and cache before the next,
			// so peak RSS is one server's, not the GC's timing.
			s.stop()
			runtime.GC()
			if err := s.start(tr); err != nil {
				p.fail("restart server: %v", err)
				return p
			}
		}
		servers++
		t := time.Now()
		outs, ws := s.loop(tr, t.Add(d-wall))
		dt := time.Since(t)
		wall += dt
		s.outs = append(s.outs, outs...)
		windows = append(windows, ws...)
		rates = append(rates, float64(len(outs))/dt.Seconds())
	}
	s.fold()

	var lat []float64
	completed := 0
	for i := range s.outs {
		o := &s.outs[i]
		p.attempted++
		switch {
		case o.rejected:
			s.rejected++
			p.fail("job %s: rejected (429)", o.id)
		case o.err != nil:
			p.fail("job %s: %v", o.id, o.err)
		default:
			completed++
			lat = append(lat, float64(o.lat)/1e6)
		}
	}
	p.opsMS = lat
	switch {
	case s.hot && len(windows) > 0:
		// Every hit costs the same, so a window's time moves only with
		// interference; the median window sets that aside.
		p.passS = median(windows)
	case completed > 0:
		// Cold jobs are a deliberate mix of cheap and budget-bound
		// solves, so the pass is the mix's rate over the whole phase.
		p.passS = wall.Seconds() * float64(s.perPass) / float64(completed)
	}
	p.extra["pass_windows_s"] = summarize(windows)
	p.extra["jobs_per_pass"] = s.perPass
	p.extra["jobs_per_s"] = float64(completed) / wall.Seconds()
	p.extra["job_ms"] = summarize(lat)
	p.extra["completed"] = completed
	p.extra["rejected"] = s.rejected
	p.extra["jobs_per_s.servers"] = rates
	if s.hot && s.hits != int64(completed) {
		p.fail("%d cache hits for %d jobs: every serve-hot job must hit", s.hits, completed)
	}
	if !s.hot && s.hits != 0 {
		p.fail("%d cache hits: every serve-cold job must miss", s.hits)
	}
	return p
}

// loop runs the closed loop on the current server until deadline or
// until the server has taken perServer jobs. It returns every outcome
// and the duration of each full window of perPass completions.
func (s *serveBench) loop(tr *tracer, deadline time.Time) ([]outcome, []float64) {
	start := time.Now()
	var next atomic.Int64
	n := int64(s.perServer - s.served)
	per := make([][]outcome, s.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				per[c] = append(per[c], s.do(s.hcs[c], tr, s.jobAt(s.served+int(i))))
			}
		}(c)
	}
	wg.Wait()
	var outs []outcome
	var ends []time.Time
	for _, o := range per {
		outs = append(outs, o...)
		for i := range o {
			ends = append(ends, o[i].end)
		}
	}
	s.served += len(outs)
	sort.Slice(ends, func(a, b int) bool { return ends[a].Before(ends[b]) })
	var windows []float64
	for w := s.perPass; w <= len(ends); w += s.perPass {
		windows = append(windows, ends[w-1].Sub(start).Seconds())
		start = ends[w-1]
	}
	return outs, windows
}

// do runs job j end to end as a client and checks a serve-hot result
// against the primed one.
func (s *serveBench) do(hc *http.Client, tr *tracer, j int) outcome {
	o := s.fetch(hc, tr, j)
	o.end = time.Now()
	if s.hot {
		if o.err == nil && !bytes.Equal(o.body, s.primed[j]) {
			o.err = fmt.Errorf("result differs from the primed one")
		}
		o.body, o.status = nil, s.statuses[j]
	}
	return o
}

// fetch submits job j, polls its result with backoff from 100 µs
// (doubling, capped at 2 ms) and returns what the client saw.
func (s *serveBench) fetch(hc *http.Client, tr *tracer, j int) outcome {
	o := outcome{job: j}
	t0 := time.Now()
	code, body, err := s.call(hc, http.MethodPost, "/v1/jobs", s.jobs[j].body)
	t1 := time.Now()
	switch {
	case err != nil:
		o.err = fmt.Errorf("submit: %w", err)
		return o
	case code == http.StatusTooManyRequests:
		o.rejected = true
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
		return o
	}
	var v server.View
	if err := json.Unmarshal(body, &v); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.id = v.ID
	tr.add("http.submit", o.id, t0, t1)
	backoff := 100 * time.Microsecond
	for {
		tp := time.Now()
		code, body, err = s.call(hc, http.MethodGet, "/v1/jobs/"+o.id+"/result", nil)
		te := time.Now()
		switch {
		case err != nil:
			o.err = fmt.Errorf("result: %w", err)
			return o
		case code == http.StatusOK:
			tr.add("http.result", o.id, tp, te)
			o.body, o.lat = body, te.Sub(t0)
			tr.add("bench.job", o.id, t0, te)
			var r struct{ Status string }
			if err := json.Unmarshal(body, &r); err != nil {
				o.err = fmt.Errorf("result: %w", err)
			}
			o.status = r.Status
			return o
		case code != http.StatusConflict || bytes.Contains(body, []byte("without a result")):
			o.err = fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(body))
			return o
		case te.Sub(t0) > jobTimeout:
			o.err = fmt.Errorf("no result after %v", jobTimeout)
			return o
		}
		tr.add("http.poll", o.id, tp, te)
		o.polls++
		time.Sleep(backoff)
		backoff = min(2*backoff, 2*time.Millisecond)
	}
}

// call makes one HTTP request and returns the status code and body.
func (s *serveBench) call(hc *http.Client, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.hs.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// check re-solves a seeded sample of the serve-cold results locally,
// through the same SubmitRequest.Build the server runs and opt.ExactWith,
// and requires each to match the fetched document byte for byte.
func (s *serveBench) check(p *phase) {
	if s.hot {
		return
	}
	var done []int
	for i := range s.outs {
		if s.outs[i].err == nil && !s.outs[i].rejected {
			done = append(done, i)
		}
	}
	rng := rand.New(rand.NewSource(s.seed))
	rng.Shuffle(len(done), func(a, b int) { done[a], done[b] = done[b], done[a] })
	for _, i := range done[:min(checkSample, len(done))] {
		o := &s.outs[i]
		p.attempted++
		req := s.jobs[o.job].req
		in, cfg, _, err := req.Build()
		if err != nil {
			p.fail("check %s: %v", o.id, err)
			continue
		}
		res, err := opt.ExactWith(context.Background(), in, cfg)
		if res == nil || (err != nil && res.Status != opt.StatusBudget) {
			p.fail("check %s: local solve: %v", o.id, err)
			continue
		}
		want, err := server.EncodeResult(res)
		if err != nil || !bytes.Equal(want, o.body) {
			p.fail("check %s (%s k=%d g=%d): server result differs from the local solve", o.id, req.DAG, req.K, req.G)
			continue
		}
		s.checked = append(s.checked, res)
	}
}

func (s *serveBench) layers(p *phase, spans []span, m metrics) {
	setDist := func(name string, xs []float64) {
		m.set(name+".p50", median(xs), "ms")
		if _, v, ok := tail(xs); ok {
			m.set(name+".tail", v, "ms")
		}
	}
	setDist("server.submit_ms", durations(spans, "http.submit"))
	setDist("server.result_ms", durations(spans, "http.result"))
	setDist("server.queue_wait_ms", durations(spans, "server.queue_wait"))
	solve := "opt.solve"
	if s.hot {
		solve = "cache.hit"
	}
	setDist("server.solve_ms", durations(spans, solve))

	var stores int
	var storeNS float64
	selfUS := map[string][]float64{}
	for i := range spans {
		sp := &spans[i]
		switch {
		case strings.HasPrefix(sp.Name, "server.store."):
			stores++
			storeNS += float64(sp.End - sp.Start)
		case strings.HasPrefix(sp.Name, "server.handler."):
			route := strings.TrimPrefix(sp.Name, "server.handler.")
			selfUS[route] = append(selfUS[route], float64(sp.Self)/1e3)
		}
	}
	polls, partial := 0, 0
	for i := range s.outs {
		polls += s.outs[i].polls
		if s.outs[i].status == opt.StatusBudget.String() {
			partial++
		}
	}
	if n := float64(len(s.outs)); n > 0 {
		m.set("server.polls_per_job", float64(polls)/n, "count")
		m.set("cache.hit_ratio", float64(s.hits)/n, "ratio")
		m.set("opt.partial_ratio", float64(partial)/n, "ratio")
	}
	for _, route := range []string{"submit", "result"} {
		if xs := selfUS[route]; len(xs) > 0 {
			m.set("server.handler_us."+route, sum(xs)/float64(len(xs)), "us")
		}
	}
	if stores > 0 {
		m.set("server.store_us", storeNS/float64(stores)/1e3, "us")
	}
	m.set("server.store_jobs", float64(s.storeJobs), "count")
	m.set("server.rejected", float64(s.rejected), "count")
	m.set("cache.entries", float64(s.entries), "count")
	m.set("cache.bytes", float64(s.cacheBytes), "B")

	// Replay the phase's distinct requests through the public functions
	// the submit handler runs, and its results through EncodeResult.
	used := map[int]bool{}
	for i := range s.outs {
		used[s.outs[i].job] = true
	}
	var bodies [][]byte
	var ins []*pebble.Instance
	var cfgs []opt.Config
	for j := range s.jobs {
		if !used[j] {
			continue
		}
		in, cfg, _, err := s.jobs[j].req.Build()
		if err != nil {
			p.fail("replay Build %s: %v", s.jobs[j].body, err)
			continue
		}
		bodies, ins, cfgs = append(bodies, s.jobs[j].body), append(ins, in), append(cfgs, cfg)
	}
	if len(ins) == 0 {
		return
	}
	m.set("server.build_us", perCallUS(len(bodies), func(i int) {
		var r server.SubmitRequest
		if json.Unmarshal(bodies[i], &r) == nil {
			_, _, _, _ = r.Build() // validated above
		}
	}), "us")
	m.set("cache.key_us", perCallUS(len(ins), func(i int) { cache.KeyOf(ins[i], solverSubset(cfgs[i])) }), "us")
	m.set("opt.root_lower_us", perCallUS(len(ins), func(i int) { opt.RootLowerBound(ins[i], cfgs[i].Heuristic) }), "us")
	results := s.checked
	if s.hot {
		// Every pool job is in the live server's cache: these are hits.
		for i := range ins {
			res, err := opt.SolveCached(context.Background(), ins[i], cfgs[i], s.sc)
			if res != nil && (err == nil || res.Status == opt.StatusBudget) {
				results = append(results, res)
			}
		}
	}
	if len(results) > 0 {
		m.set("server.encode_us", perCallUS(len(results), func(i int) {
			_, _ = server.EncodeResult(results[i]) // encoded without error when fetched
		}), "us")
	}
}

// perCallUS times f over i = 0..n-1, repeating the sweep until ~20 ms
// have been measured, and returns the mean µs per call.
func perCallUS(n int, f func(i int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < 20*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start)) / 1e3 / float64(calls)
}

// tracedHandler wraps the server's Handler in a traced run: one span per
// request, named by route and tagged with the job ID.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rest, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		// The new job's ID is only in the response.
		cw := &captureWriter{ResponseWriter: w}
		t.h.ServeHTTP(cw, r)
		end := time.Now()
		var v server.View
		_ = json.Unmarshal(cw.buf.Bytes(), &v) // a rejected submit has no ID
		t.tr.add("server.handler.submit", v.ID, start, end)
	case isJob && strings.HasSuffix(rest, "/result"):
		t.h.ServeHTTP(w, r)
		t.tr.add("server.handler.result", strings.TrimSuffix(rest, "/result"), start, time.Now())
	case isJob:
		t.h.ServeHTTP(w, r)
		t.tr.add("server.handler.status", rest, start, time.Now())
	default:
		t.h.ServeHTTP(w, r)
		t.tr.add("server.handler.other", "", start, time.Now())
	}
}

// captureWriter passes a response through and keeps a copy of its body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// tracedStore is the JobStore of a traced run: a MemStore with one span
// per call, tagged with the job ID. When an update finishes a job, the
// job's own timestamps give two more spans: the queue wait and the
// solve (named solve: opt.solve on a miss, cache.hit on a hit).
type tracedStore struct {
	mem   *server.MemStore
	tr    *tracer
	solve string
}

var _ server.JobStore = tracedStore{}

func (s tracedStore) Put(j *server.Job) error {
	t := time.Now()
	err := s.mem.Put(j)
	s.tr.add("server.store.put", j.ID, t, time.Now())
	return err
}

func (s tracedStore) Get(id string) (server.Job, error) {
	t := time.Now()
	j, err := s.mem.Get(id)
	s.tr.add("server.store.get", id, t, time.Now())
	return j, err
}

func (s tracedStore) Update(id string, fn func(*server.Job)) (server.Job, error) {
	t := time.Now()
	j, err := s.mem.Update(id, fn)
	s.tr.add("server.store.update", id, t, time.Now())
	if err == nil && j.State.Terminal() && !j.Started.IsZero() {
		s.tr.add("server.queue_wait", id, j.Submitted, j.Started)
		s.tr.add(s.solve, id, j.Started, j.Finished)
	}
	return j, err
}

func (s tracedStore) List() ([]server.Job, error) {
	t := time.Now()
	js, err := s.mem.List()
	s.tr.add("server.store.list", "", t, time.Now())
	return js, err
}

func (s tracedStore) Delete(id string) error {
	t := time.Now()
	err := s.mem.Delete(id)
	s.tr.add("server.store.delete", id, t, time.Now())
	return err
}
