// Command bench is the repository's end-to-end benchmark. It runs five
// workloads — one per path by which users reach the solver and the
// schedulers — through each layer's public functions only, checks every
// output, and prints every metric by name with its unit.
//
//	bash bench/run.sh                                  # all workloads, each in its own process
//	bash bench/run.sh --workload serve-cold --seed 3   # one workload, end-to-end metrics
//	bash bench/run.sh --workload serve-cold --trace 1  # per-layer metrics and trace file
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. An untraced run reports
// the end-to-end metrics; a traced run reports the per-layer metrics
// only, so traced numbers can never be read as end-to-end ones. Reports
// and traces are written under -out. README.md describes the workloads,
// the metrics and which layer metric should move which end-to-end one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload (or every workload, each in a child
// process) and returns the exit code: 0 when every output checked out,
// 1 when an operation or check failed, 2 on a usage or set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "out", "directory for report and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, setups: 5}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	s, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (accepted: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := execute(s, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := writeReport(rep, *out, stderr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := printLine(stdout, line{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range registry {
		names = append(names, s.name)
	}
	return names
}

func printLine(w io.Writer, l line) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload in a child process of its own, so peak RSS
// and GC state belong to that workload alone, then prints every metric
// and a combined last line whose metric names are prefixed with the
// workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	total := line{Correct: true, Metrics: metrics{}}
	code := 0
	for _, s := range registry {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", s.name)...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		err := cmd.Run()
		l, perr := lastLine(buf.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (exit: %v)\n", s.name, perr, err)
			return 2
		}
		if err != nil || !l.Correct {
			code = 1
		}
		total.Correct = total.Correct && l.Correct
		total.Attempted += l.Attempted
		total.Failed += l.Failed
		for n, m := range l.Metrics {
			total.Metrics[s.name+"."+n] = m
		}
	}
	names := make([]string, 0, len(total.Metrics))
	for n := range total.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-48s %14s %s\n", n, strconv.FormatFloat(total.Metrics[n].Value, 'g', 6, 64), total.Metrics[n].Unit)
	}
	if err := printLine(stdout, total); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

// lastLine decodes the last non-empty line of a child's output.
func lastLine(out []byte) (line, error) {
	var l line
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return l, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		return l, fmt.Errorf("bad result line: %w", err)
	}
	return l, nil
}
