package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/opt"
)

// startServer wires a full server (workers running) behind an
// httptest.Server and tears both down with the test.
func startServer(t *testing.T, o Options) *httptest.Server {
	t.Helper()
	s := New(o)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.Wait()
	})
	return ts
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) (View, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	var v View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatalf("bad submit response %q: %v", out, err)
		}
	}
	return v, resp.StatusCode
}

func getView(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getView(t, ts, id)
		if State(v.State).Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return View{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return out, resp.StatusCode
}

// TestSubmitSolveResult drives the happy path: accepted with a root
// bracket, solved to completion, and the result document byte-identical
// to a local opt.SolveCached run of the same request.
func TestSubmitSolveResult(t *testing.T) {
	ts := startServer(t, Options{Workers: 2, Cache: opt.NewSolveCache(cache.Options{})})
	req := SubmitRequest{DAG: "grid:3,3", K: 2, G: 3}
	v, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if v.ID == "" || v.LowerBound <= 0 || v.Incumbent != -1 {
		t.Fatalf("initial view lacks a root bracket: %+v", v)
	}
	if !strings.Contains(v.Bracket, "OPT") {
		t.Fatalf("bracket not rendered: %+v", v)
	}

	fin := waitTerminal(t, ts, v.ID)
	if fin.State != string(StateDone) || fin.ResultStatus != "complete" {
		t.Fatalf("final view: %+v", fin)
	}
	if fin.LowerBound != fin.Incumbent {
		t.Fatalf("complete bracket did not collapse: %+v", fin)
	}

	got, code := fetchResult(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, got)
	}
	in, cfg, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.SolveCached(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server result differs from local solve:\nserver: %s\nlocal:  %s", got, want)
	}
}

// TestWitnessResultCarriesStrategy checks the witness round-trip: a
// witness job's result embeds a strategy document, byte-identical to
// the local reconstruction.
func TestWitnessResultCarriesStrategy(t *testing.T) {
	ts := startServer(t, Options{Workers: 1})
	req := SubmitRequest{DAG: "chain:6", K: 1, G: 2, Witness: true}
	v, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, v.ID)
	got, code := fetchResult(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	var doc struct {
		Status   string          `json:"status"`
		Strategy json.RawMessage `json:"strategy"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "complete" || len(doc.Strategy) == 0 {
		t.Fatalf("witness result lacks a strategy: %s", got)
	}
	in, cfg, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.SolveCached(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("witness result differs from local solve")
	}
}

// TestWitnessJobIsHostIndependent: a witness job returns the bytes of
// a local one-worker solve whatever the host's core count. Build leaves
// Workers at 0 (GOMAXPROCS), and a deterministic job runs on one shard
// whatever Workers says; chains:3,2 at k=1, g=2 has equally cheap
// witnesses, so a job sharded GOMAXPROCS-wide could return another one
// here under GOMAXPROCS 2.
func TestWitnessJobIsHostIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ts := startServer(t, Options{Workers: 1})
	req := SubmitRequest{DAG: "chains:3,2", K: 1, G: 2, Witness: true}
	v, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts, v.ID)
	got, code := fetchResult(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	in, cfg, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1 // the reference is a one-worker solve whatever Build says
	res, err := opt.ExactWith(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("witness job differs from the local one-worker solve:\nserver: %s\nlocal:  %s", got, want)
	}
}

// TestBudgetJobTypedPartial: a state-budget stop is StateDone with a
// "budget" result whose bracket is valid — not a failure.
func TestBudgetJobTypedPartial(t *testing.T) {
	ts := startServer(t, Options{Workers: 1})
	v, code := submit(t, ts, SubmitRequest{DAG: "grid:4,4", K: 2, G: 3, MaxStates: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != string(StateDone) || fin.ResultStatus != "budget" {
		t.Fatalf("budget job: %+v", fin)
	}
	if fin.Error == "" || !strings.Contains(fin.Error, "budget") {
		t.Fatalf("budget job should carry the stop reason, got %q", fin.Error)
	}
	if fin.LowerBound < 0 || (fin.Incumbent != -1 && fin.Incumbent < fin.LowerBound) {
		t.Fatalf("invalid partial bracket: %+v", fin)
	}
}

// TestDeadlineJobTypedPartial: a deadline stop is StateDone with a
// "canceled" result — the per-job timeout travels the context plumbing.
func TestDeadlineJobTypedPartial(t *testing.T) {
	ts := startServer(t, Options{Workers: 1})
	v, code := submit(t, ts, SubmitRequest{DAG: "grid:6,6", K: 2, G: 3, TimeoutMS: 30})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != string(StateDone) || fin.ResultStatus != "canceled" {
		t.Fatalf("deadline job: %+v", fin)
	}
	if fin.LowerBound < 0 || (fin.Incumbent != -1 && fin.Incumbent < fin.LowerBound) {
		t.Fatalf("invalid partial bracket: %+v", fin)
	}
}

// TestCancelQueuedJob: with no workers running, a queued job cancels
// immediately.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{}) // workers never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v, code := submit(t, ts, SubmitRequest{DAG: "chain:4", K: 1, G: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv View
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	if cv.State != string(StateCanceled) {
		t.Fatalf("canceled queued job state = %s", cv.State)
	}
}

// TestCancelRunningJob: canceling mid-solve lands the job in
// StateCanceled with the solver's typed partial attached.
func TestCancelRunningJob(t *testing.T) {
	ts := startServer(t, Options{Workers: 1})
	v, code := submit(t, ts, SubmitRequest{DAG: "grid:6,6", K: 2, G: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Wait for the worker to pick it up, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if getView(t, ts, v.ID).State == string(StateRunning) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != string(StateCanceled) {
		t.Fatalf("canceled running job state = %s", fin.State)
	}
	if fin.ResultStatus != "canceled" {
		t.Fatalf("canceled running job result status = %q", fin.ResultStatus)
	}
}

// TestQueueFullRejects: with no workers draining, submissions beyond
// the queue bound get 429 and leave no job record behind.
func TestQueueFullRejects(t *testing.T) {
	s := New(Options{QueueDepth: 1}) // workers never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, code := submit(t, ts, SubmitRequest{DAG: "chain:4", K: 1, G: 1}); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	if _, code := submit(t, ts, SubmitRequest{DAG: "chain:4", K: 1, G: 1}); code != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d, want 429", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("rejected submission left a record: %d jobs listed", len(views))
	}
}

// TestSubmitValidation: every malformed request is a 400 with a JSON
// error envelope, never a stored job.
func TestSubmitValidation(t *testing.T) {
	ts := startServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"no dag", `{"k":1,"g":1}`},
		{"both dags", `{"dag":"chain:3","dag_json":{"name":"x"},"k":1,"g":1}`},
		{"bad spec", `{"dag":"nosuch:9","k":1,"g":1}`},
		{"r too small", `{"dag":"grid:3,3","k":1,"r":1,"g":1}`},
		{"bad heuristic", `{"dag":"chain:3","k":1,"g":1,"heuristic":"bogus"}`},
		{"bad mode", `{"dag":"chain:3","k":1,"g":1,"mode":"bogus"}`},
		{"negative timeout", `{"dag":"chain:3","k":1,"g":1,"timeout_ms":-5}`},
		{"unknown field", `{"dag":"chain:3","k":1,"g":1,"bogus":true}`},
		{"negative k", `{"dag":"chain:3","k":-2,"g":1}`},
		// Past math.MaxInt32 an int64 cost can overflow; g = 2⁶² once
		// panicked the worker that ran it.
		{"g beyond int32", `{"dag":"grid:2,2","k":1,"g":4611686018427387904}`},
		{"compute cost beyond int32", `{"dag":"chain:3","k":1,"g":1,"compute_cost":2147483648}`},
		// A negative node count once reached make in dag.Builder and
		// panicked the handler: the client saw a dropped connection.
		{"negative dag_json n", `{"dag_json":{"n":-1,"edges":[]},"k":1,"g":1}`},
		// The exact solver sizes its memory by k: unbounded, k = 10⁶
		// would ask a worker for ~8 GB, and k = 2³¹−1 the handler's root
		// bound for ~17 GB. Past 62 nodes a job was accepted, then
		// failed in the worker.
		{"k beyond 62", `{"dag":"grid:2,2","k":63,"g":1}`},
		{"k at int32 max", `{"dag":"grid:2,2","k":2147483647,"g":1}`},
		{"n beyond 62", `{"dag":"chain:63","k":1,"g":1}`},
		// An inline graph's node count is checked before it is built:
		// building allocates per node, about 115 bytes each.
		{"dag_json n beyond 62", `{"dag_json":{"n":63,"edges":[]},"k":1,"g":1}`},
		{"dag_json n at int32 max", `{"dag_json":{"n":2147483647,"edges":[]},"k":1,"g":1}`},
	}
	// The limits' errors name them.
	says := map[string]string{
		"k beyond 62":             "at most 62 processors",
		"k at int32 max":          "at most 62 processors",
		"n beyond 62":             "at most 62",
		"dag_json n beyond 62":    "at most 62",
		"dag_json n at int32 max": "at most 62",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var env map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env["error"] == "" {
				t.Fatalf("missing error envelope: %v", err)
			}
			if !strings.Contains(env["error"], says[c.name]) {
				t.Errorf("error %q does not say %q", env["error"], says[c.name])
			}
		})
	}
}

// TestBuildCountsDAGJSONNodesFirst: Build refuses an inline graph of
// 10⁶ nodes without building it. Building first allocated ~115 MB for
// this 24-byte document, and ~240 GB at n = 2³¹−1; the refusal must
// stay under 64 KB. The least of three runs is taken, so an allocation
// on another goroutine cannot fail the check.
func TestBuildCountsDAGJSONNodesFirst(t *testing.T) {
	req := SubmitRequest{DAGJSON: json.RawMessage(`{"n":1000000,"edges":[]}`), K: 1, G: 1}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := req.Build()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "at most 62") {
			t.Fatalf("Build: err %v, want the 62-node limit named", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("Build allocated %d bytes refusing a 10⁶-node dag_json, want under 64 KB", least)
	}
}

// TestSubmitRejectsFileDAG: a "file:" spec would read a path on the
// server's host, and its parse error would echo the file's first token
// back to the client. The server refuses the kind before opening
// anything.
func TestSubmitRejectsFileDAG(t *testing.T) {
	const marker = "s3cret-token-marker"
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte(marker+" 1 2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, Options{Workers: 1})
	body, err := json.Marshal(SubmitRequest{DAG: "file:" + path, K: 1, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d (%s), want 400", resp.StatusCode, out)
	}
	if strings.Contains(string(out), marker) {
		t.Errorf("response %s echoes the file's contents", out)
	}
	if !strings.Contains(string(out), "dag_json") {
		t.Errorf("response %s does not point to dag_json", out)
	}
}

// TestJobNotFoundAndResultConflict covers the remaining error paths:
// unknown IDs are 404 everywhere, a result fetched before the job is
// terminal is 409.
func TestJobNotFoundAndResultConflict(t *testing.T) {
	s := New(Options{QueueDepth: 4}) // workers never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	v, _ := submit(t, ts, SubmitRequest{DAG: "chain:4", K: 1, G: 1})
	if _, code := fetchResult(t, ts, v.ID); code != http.StatusConflict {
		t.Fatalf("result of queued job: HTTP %d, want 409", code)
	}
}

// TestMetricsEndpoint: after one completed solve the counters and the
// histogram must be non-zero, and the cache counters present.
func TestMetricsEndpoint(t *testing.T) {
	ts := startServer(t, Options{Workers: 1, Cache: opt.NewSolveCache(cache.Options{})})
	v, _ := submit(t, ts, SubmitRequest{DAG: "chain:5", K: 1, G: 1})
	waitTerminal(t, ts, v.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"mpp_jobs_submitted_total 1",
		`mpp_jobs_finished_total{state="done"} 1`,
		"mpp_solve_seconds_count 1",
		"mpp_cache_misses_total 1",
		"mpp_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestServerCacheHitAcrossJobs: two identical submissions share one
// search through the solve cache.
func TestServerCacheHitAcrossJobs(t *testing.T) {
	sc := opt.NewSolveCache(cache.Options{})
	ts := startServer(t, Options{Workers: 1, Cache: sc})
	req := SubmitRequest{DAG: "grid:3,3", K: 2, G: 3}
	v1, _ := submit(t, ts, req)
	waitTerminal(t, ts, v1.ID)
	v2, _ := submit(t, ts, req)
	waitTerminal(t, ts, v2.ID)
	st := sc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after identical jobs: %+v", st)
	}
	r1, _ := fetchResult(t, ts, v1.ID)
	r2, _ := fetchResult(t, ts, v2.ID)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cache hit produced a different result document")
	}
}

// TestEncodeResultDeterministic: the canonical encoding is a pure
// function of the Result.
func TestEncodeResultDeterministic(t *testing.T) {
	req := SubmitRequest{DAG: "fft:2", K: 2, G: 2}
	in, cfg, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.SolveCached(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeResult not deterministic")
	}
	if _, err := EncodeResult(nil); err == nil {
		t.Fatal("EncodeResult(nil) should error")
	}
}

// TestMemStoreCRUD exercises the store seam directly.
func TestMemStoreCRUD(t *testing.T) {
	st := NewMemStore()
	if err := st.Put(&Job{ID: "a", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Job{ID: "a"}); err == nil {
		t.Fatal("duplicate Put accepted")
	}
	if err := st.Put(&Job{ID: "b", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	j, err := st.Get("a")
	if err != nil || j.ID != "a" {
		t.Fatalf("Get: %+v, %v", j, err)
	}
	if _, err := st.Get("zzz"); err == nil {
		t.Fatal("Get of unknown id succeeded")
	}
	j, err = st.Update("a", func(j *Job) { j.State = StateRunning })
	if err != nil || j.State != StateRunning {
		t.Fatalf("Update: %+v, %v", j, err)
	}
	// Snapshots are copies: mutating one must not leak back.
	j.State = StateFailed
	if cur, _ := st.Get("a"); cur.State != StateRunning {
		t.Fatal("Get returned a shared pointer, not a snapshot")
	}
	all, err := st.List()
	if err != nil || len(all) != 2 || all[0].ID != "a" || all[1].ID != "b" {
		t.Fatalf("List: %+v, %v", all, err)
	}
	if err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("a"); err == nil {
		t.Fatal("double Delete succeeded")
	}
	all, _ = st.List()
	if len(all) != 1 || all[0].ID != "b" {
		t.Fatalf("List after delete: %+v", all)
	}
}

// TestConcurrentSubmissions floods a small pool: everything beyond the
// worker bound queues (no 429 with a deep queue) and completes.
func TestConcurrentSubmissions(t *testing.T) {
	ts := startServer(t, Options{Workers: 2, QueueDepth: 64, Cache: opt.NewSolveCache(cache.Options{})})
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		v, code := submit(t, ts, SubmitRequest{DAG: fmt.Sprintf("chain:%d", 4+i), K: 1, G: 1})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		fin := waitTerminal(t, ts, id)
		if fin.State != string(StateDone) || fin.ResultStatus != "complete" {
			t.Fatalf("job %s: %+v", id, fin)
		}
	}
}
