// Package server implements the solver-as-a-service layer: an
// HTTP/JSON job API over the exact solver, backed by a bounded
// worker-pool scheduler that funnels every solve through
// opt.SolveCached, a pluggable job store, per-job deadlines mapped onto
// the solver's context plumbing, and a Prometheus-style /metrics
// endpoint.
//
// The QoS contract mirrors the anytime solver contract: a job never
// "times out into an error". A deadline or budget stop yields a typed
// partial Result whose bracket [LowerBound, Incumbent] still contains
// OPT, and the job lands in StateDone with the result's Status saying
// why the search stopped. Only a request the solver could not start
// (or a hard engine failure) produces StateFailed.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/pebble"
	"repro/internal/spec"
)

// SubmitRequest is the POST /v1/jobs body: a DAG (generator spec string
// or inline JSON), the game parameters, the solver configuration and an
// optional per-job deadline. The zero values resolve to the same
// defaults the CLI tools use, with two pointer fields where the zero
// value is a meaningful non-default: ComputeCost nil means the paper's
// MPP cost 1 (0 is classic SPP free compute), Dominance nil means on.
type SubmitRequest struct {
	// DAG is a generator spec (spec.DAGSyntax, e.g. "grid:4,4");
	// DAGJSON is an inline dag.Graph JSON document. Exactly one must be
	// set. The spec kind file:PATH is local to the CLIs and rejected
	// here, since it would read a path on the server's host: send a
	// graph from a file as DAGJSON.
	DAG     string          `json:"dag,omitempty"`
	DAGJSON json.RawMessage `json:"dag_json,omitempty"`

	K           int  `json:"k"`                      // processors; 0 → 1
	R           int  `json:"r,omitempty"`            // red pebbles per processor; 0 → Δin+2
	G           int  `json:"g"`                      // I/O cost (0 is legal: free I/O)
	ComputeCost *int `json:"compute_cost,omitempty"` // nil → 1 (paper MPP)
	OneShot     bool `json:"one_shot,omitempty"`

	MaxStates int    `json:"max_states,omitempty"` // 0 → unbounded
	Heuristic string `json:"heuristic,omitempty"`  // "" → "max"
	Dominance *bool  `json:"dominance,omitempty"`  // nil → true
	Witness   bool   `json:"witness,omitempty"`

	// TimeoutMS is the per-job wall-clock deadline in milliseconds,
	// measured from the moment a worker starts the solve (queue wait is
	// not charged against it). 0 means no deadline. A deadline stop is
	// a typed partial result (StatusCanceled), not a failure.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Build validates the request and resolves it into the instance, solver
// configuration and deadline a worker will run. It is exported (and
// deterministic) so out-of-process clients — the e2e harness in
// particular — can reproduce a server-side solve bit-for-bit.
func (req *SubmitRequest) Build() (*pebble.Instance, opt.Config, time.Duration, error) {
	var cfg opt.Config
	g, err := req.graph()
	if err != nil {
		return nil, cfg, 0, err
	}
	if n := g.N(); n > opt.MaxExact {
		return nil, cfg, 0, fmt.Errorf("dag has %d nodes; the exact solver takes at most %d", n, opt.MaxExact)
	}
	k := req.K
	if k == 0 {
		k = 1
	}
	if k > opt.MaxExact {
		return nil, cfg, 0, fmt.Errorf("k = %d; the exact solver takes at most %d processors", k, opt.MaxExact)
	}
	r := req.R
	if r == 0 {
		r = g.MaxInDegree() + 2
	}
	p := pebble.Params{K: k, R: r, G: req.G, ComputeCost: 1, OneShot: req.OneShot}
	if req.ComputeCost != nil {
		p.ComputeCost = *req.ComputeCost
	}
	in, err := pebble.NewInstance(g, p)
	if err != nil {
		return nil, cfg, 0, err
	}

	cfg = opt.DefaultConfig(req.MaxStates)
	if req.Heuristic != "" {
		h, ok := opt.ParseHeuristicMode(req.Heuristic)
		if !ok {
			return nil, cfg, 0, fmt.Errorf(`unknown heuristic %q (accepted: "floor", "io", "max")`, req.Heuristic)
		}
		cfg.Heuristic = h
	}
	if req.Dominance != nil {
		cfg.Dominance = *req.Dominance
	}
	cfg.Witness = req.Witness
	if req.TimeoutMS < 0 {
		return nil, cfg, 0, fmt.Errorf("timeout_ms = %d, want ≥ 0", req.TimeoutMS)
	}
	return in, cfg, time.Duration(req.TimeoutMS) * time.Millisecond, nil
}

// graph resolves the request's DAG: exactly one of the spec string and
// the inline JSON document must be present.
func (req *SubmitRequest) graph() (*dag.Graph, error) {
	switch {
	case req.DAG != "" && len(req.DAGJSON) > 0:
		return nil, fmt.Errorf(`both "dag" and "dag_json" set; submit exactly one`)
	case req.DAG != "":
		if kind, _, _ := strings.Cut(req.DAG, ":"); kind == "file" {
			return nil, fmt.Errorf(`"dag" kind "file" reads the server's disk and is not accepted; send the graph as "dag_json"`)
		}
		return spec.ParseDAG(req.DAG)
	case len(req.DAGJSON) > 0:
		return dag.FromJSON(req.DAGJSON)
	}
	return nil, fmt.Errorf(`neither "dag" nor "dag_json" set; submit exactly one`)
}

// State is a job's lifecycle state. Queued and running are transient;
// done, failed and canceled are terminal.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"     // solver returned a Result (complete or typed partial)
	StateFailed   State = "failed"   // solver returned no Result at all
	StateCanceled State = "canceled" // canceled via the API before a Result mattered
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the persistent record of one submitted solve. The scheduler
// mutates it only through JobStore.Update; runtime-only state (the
// per-job cancel function) lives in the scheduler, not here, so a
// future file- or SQL-backed store can persist Jobs as-is.
type Job struct {
	ID  string
	Req SubmitRequest

	State           State
	CancelRequested bool

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// Graph/instance echo, filled at submit time.
	DAGName string
	N       int
	K, R, G int

	// RootLower is the admissible root lower bound computed at submit
	// time, so a job has a meaningful bracket [RootLower, ∞) from the
	// moment it is accepted — before any search work happens.
	RootLower int64

	// Result and Err are set exactly once, by the worker that finishes
	// the job; Result is read-only from then on. Err carries the stop
	// reason (budget/deadline text) on partials and the failure message
	// on StateFailed.
	Result *opt.Result
	Err    string
}

// Bracket returns the job's current OPT bracket (lower bound,
// incumbent). Before a result exists the lower bound is the root
// heuristic bound and the incumbent is -1 (none).
func (j *Job) Bracket() (lower, incumbent int64) {
	if j.Result != nil {
		return j.Result.LowerBound, j.Result.Incumbent
	}
	return j.RootLower, -1
}

// View is the JSON shape of a job in API responses.
type View struct {
	ID              string `json:"id"`
	State           string `json:"state"`
	DAG             string `json:"dag"`
	N               int    `json:"n"`
	K               int    `json:"k"`
	R               int    `json:"r"`
	G               int    `json:"g"`
	Submitted       string `json:"submitted,omitempty"`
	Started         string `json:"started,omitempty"`
	Finished        string `json:"finished,omitempty"`
	LowerBound      int64  `json:"lower_bound"`
	Incumbent       int64  `json:"incumbent"`
	Bracket         string `json:"bracket"`
	ResultStatus    string `json:"result_status,omitempty"`
	States          int    `json:"states,omitempty"`
	Error           string `json:"error,omitempty"`
	CancelRequested bool   `json:"cancel_requested,omitempty"`
}

// ViewOf renders a job snapshot for API responses.
func ViewOf(j *Job) View {
	lower, incumbent := j.Bracket()
	v := View{
		ID:              j.ID,
		State:           string(j.State),
		DAG:             j.DAGName,
		N:               j.N,
		K:               j.K,
		R:               j.R,
		G:               j.G,
		LowerBound:      lower,
		Incumbent:       incumbent,
		Bracket:         bounds.FormatGap(lower, incumbent),
		Error:           j.Err,
		CancelRequested: j.CancelRequested,
	}
	if !j.Submitted.IsZero() {
		v.Submitted = j.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.Started.IsZero() {
		v.Started = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		v.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	if j.Result != nil {
		v.ResultStatus = j.Result.Status.String()
		v.States = j.Result.States
	}
	return v
}

// resultJSON is the canonical wire shape of an opt.Result. Field order
// is fixed by the struct, so encoding is byte-deterministic.
type resultJSON struct {
	Cost       int64           `json:"cost"`
	Status     string          `json:"status"`
	LowerBound int64           `json:"lower_bound"`
	Incumbent  int64           `json:"incumbent"`
	States     int             `json:"states"`
	Pruned     int             `json:"pruned"`
	ReExpanded int             `json:"re_expanded"`
	Heuristic  string          `json:"heuristic"`
	Strategy   json.RawMessage `json:"strategy,omitempty"`
}

// EncodeResult renders a solver Result as canonical JSON (trailing
// newline included). The encoding is a pure function of the Result, so
// two byte-identical Results — e.g. a server-side deterministic solve
// and a local opt.SolveCached run of the same request — encode to
// byte-identical documents; the e2e harness asserts exactly that.
func EncodeResult(res *opt.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("server: nil result")
	}
	rj := resultJSON{
		Cost:       res.Cost,
		Status:     res.Status.String(),
		LowerBound: res.LowerBound,
		Incumbent:  res.Incumbent,
		States:     res.States,
		Pruned:     res.Pruned,
		ReExpanded: res.ReExpanded,
		Heuristic:  res.HeuristicMode.String(),
	}
	if res.Strategy != nil {
		var buf bytes.Buffer
		if err := res.Strategy.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("server: encode strategy: %w", err)
		}
		rj.Strategy = bytes.TrimSpace(buf.Bytes())
	}
	out, err := json.Marshal(rj)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
