// Command mpp is the client for the mppserver job API. Every verb lives
// under the "remote" subcommand:
//
//	mpp remote [-server URL] submit -dag grid:4,4 -k 2 [-g 3] [-max-states n] [-timeout-ms n] [-witness] [-wait]
//	mpp remote [-server URL] status JOB
//	mpp remote [-server URL] wait JOB [-poll 100ms]
//	mpp remote [-server URL] result JOB
//	mpp remote [-server URL] cancel JOB
//	mpp remote [-server URL] list
//	mpp remote [-server URL] metrics
//
// -server defaults to $MPP_SERVER, then http://127.0.0.1:8080. Verbs
// print the server's JSON responses verbatim; "result" in particular
// echoes the canonical Result document byte-for-byte (the e2e harness
// diffs it against a local solve). A 4xx/5xx response is printed to
// stderr and exits 1; usage errors exit 2.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
)

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpp: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpp:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usageErr(`usage: mpp remote [-server URL] <submit|status|wait|result|cancel|list|metrics> ...`)
	}
	if os.Args[1] != "remote" {
		usageErr(`unknown subcommand %q (only "remote" exists; local solves live in mppsched/mppexp)`, os.Args[1])
	}
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	def := os.Getenv("MPP_SERVER")
	if def == "" {
		def = "http://127.0.0.1:8080"
	}
	serverURL := fs.String("server", def, "mppserver base URL (default $MPP_SERVER, then http://127.0.0.1:8080)")
	_ = fs.Parse(os.Args[2:])
	if fs.NArg() == 0 {
		usageErr("missing verb (submit, status, wait, result, cancel, list, metrics)")
	}
	c := client{base: *serverURL}
	verb, rest := fs.Arg(0), fs.Args()[1:]
	switch verb {
	case "submit":
		c.submit(rest)
	case "status":
		c.show(rest, "/v1/jobs/%s")
	case "result":
		c.show(rest, "/v1/jobs/%s/result")
	case "wait":
		c.wait(rest)
	case "cancel":
		c.cancel(rest)
	case "list":
		body := c.do(http.MethodGet, "/v1/jobs", nil)
		os.Stdout.Write(body)
	case "metrics":
		body := c.do(http.MethodGet, "/metrics", nil)
		os.Stdout.Write(body)
	default:
		usageErr("unknown verb %q", verb)
	}
}

type client struct{ base string }

// do performs one request; a non-2xx response is fatal (body to
// stderr, exit 1).
func (c client) do(method, path string, body []byte) []byte {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode >= 400 {
		fmt.Fprintf(os.Stderr, "mpp: HTTP %d: %s", resp.StatusCode, out)
		os.Exit(1)
	}
	return out
}

// submit builds a SubmitRequest from flags, posts it, and optionally
// polls until the job is terminal.
func (c client) submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	dagSpec := fs.String("dag", "", "DAG generator spec (e.g. grid:4,4, fft:3, chain:16); file:PATH is local only, the server rejects it: use -dag-json")
	dagJSON := fs.String("dag-json", "", "path to a dag.Graph JSON file (alternative to -dag)")
	k := fs.Int("k", 1, "number of processors")
	r := fs.Int("r", 0, "red pebbles per processor (0 = Δin+2)")
	g := fs.Int("g", 3, "I/O cost g")
	computeCost := fs.Int("compute-cost", 1, "cost of one compute move (0 = classic SPP)")
	oneShot := fs.Bool("one-shot", false, "forbid recomputation (one-shot variant)")
	maxStates := fs.Int("max-states", 0, "state budget (0 = unbounded); exceeding it yields a typed partial result")
	heuristic := fs.String("heuristic", "", `heuristic stack: "floor", "io" or "max" (default max)`)
	dominance := fs.Bool("dominance", true, "lazy deletion: delete red pebbles only on full processors")
	witness := fs.Bool("witness", false, "reconstruct an optimal strategy in the result")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-job wall-clock deadline in ms (0 = none); expiring yields a typed partial result")
	doWait := fs.Bool("wait", false, "poll until the job is terminal and print the final status")
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval for -wait")
	_ = fs.Parse(args)

	req := server.SubmitRequest{
		DAG:         *dagSpec,
		K:           *k,
		R:           *r,
		G:           *g,
		ComputeCost: computeCost,
		OneShot:     *oneShot,
		MaxStates:   *maxStates,
		Heuristic:   *heuristic,
		Dominance:   dominance,
		Witness:     *witness,
		TimeoutMS:   *timeoutMS,
	}
	if *dagJSON != "" {
		data, err := os.ReadFile(*dagJSON)
		if err != nil {
			fatal(err)
		}
		req.DAGJSON = data
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	resp := c.do(http.MethodPost, "/v1/jobs", body)
	if !*doWait {
		os.Stdout.Write(resp)
		return
	}
	var v server.View
	if err := json.Unmarshal(resp, &v); err != nil {
		fatal(fmt.Errorf("bad submit response: %w", err))
	}
	c.pollUntilTerminal(v.ID, *poll)
}

// show handles the one-job-ID verbs (status, result).
func (c client) show(args []string, pathFmt string) {
	if len(args) != 1 {
		usageErr("expected exactly one job ID")
	}
	body := c.do(http.MethodGet, fmt.Sprintf(pathFmt, args[0]), nil)
	os.Stdout.Write(body)
}

func (c client) cancel(args []string) {
	if len(args) != 1 {
		usageErr("expected exactly one job ID")
	}
	body := c.do(http.MethodDelete, "/v1/jobs/"+args[0], nil)
	os.Stdout.Write(body)
}

func (c client) wait(args []string) {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usageErr("expected exactly one job ID")
	}
	c.pollUntilTerminal(fs.Arg(0), *poll)
}

// pollUntilTerminal polls the status endpoint until the job reaches a
// terminal state, then prints the final view.
func (c client) pollUntilTerminal(id string, poll time.Duration) {
	for {
		body := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		var v server.View
		if err := json.Unmarshal(body, &v); err != nil {
			fatal(fmt.Errorf("bad status response: %w", err))
		}
		if server.State(v.State).Terminal() {
			os.Stdout.Write(body)
			return
		}
		time.Sleep(poll)
	}
}
