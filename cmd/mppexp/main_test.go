package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the command in the current directory into a temp
// binary so the tests can assert real process exit codes — flag
// validation must fail with status 2 before any experiment runs.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runExpect runs the binary and asserts the exit code and a stderr
// substring.
func runExpect(t *testing.T, bin string, wantCode int, wantStderr string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	if code != wantCode {
		t.Errorf("%v: exit code %d, want %d\nstderr: %s", args, code, wantCode, stderr.String())
	}
	if !strings.Contains(stderr.String(), wantStderr) {
		t.Errorf("%v: stderr %q does not mention %q", args, stderr.String(), wantStderr)
	}
}

// TestModeFlagValidation: an unknown -mode must fail with the usage
// exit code 2 and name the accepted values — never silently run the
// default engine.
func TestModeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	runExpect(t, bin, 2, `"deterministic", "async"`, "-mode", "bogus", "-list")
	// The legal spellings still work (-list exits 0 without solving).
	runExpect(t, bin, 0, "", "-mode", "async", "-list")
}

// TestCacheDirDiskErrorWarning: a -cache-dir that cannot be used (here a
// regular file where the store expects a directory) must produce a loud
// one-line warning at exit — the file store degrades failures to misses,
// so without the warning a dead cache directory is invisible.
func TestCacheDirDiskErrorWarning(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	notADir := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(notADir, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	// E02 runs exact solves through the cache, so the store is hit.
	runExpect(t, bin, 0, "cache disk error", "-quick", "-cache-dir", notADir, "E02")
	// A healthy directory must stay warning-free.
	cmd := exec.Command(bin, "-quick", "-cache-dir", filepath.Join(t.TempDir(), "cache"), "E02")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("healthy cache dir run failed: %v\nstderr: %s", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "warning") {
		t.Errorf("healthy cache dir produced a warning:\n%s", stderr.String())
	}
}

// TestExperimentsMarkdownPinned: EXPERIMENTS.md is a short header
// followed by exactly what `mppexp -markdown` prints, from its "## E01"
// line on. Every number in it is deterministic, so a change that moves
// any experiment's output — an optimum, a state count, a bound — fails
// here until the file is regenerated.
func TestExperimentsMarkdownPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(doc), "\n## E01")
	if at < 0 {
		t.Fatal(`EXPERIMENTS.md has no "## E01" line`)
	}
	header := strings.Count(string(doc[:at+1]), "\n")
	want := string(doc[at+1:])

	bin := buildCLI(t)
	cmd := exec.Command(bin, "-markdown")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mppexp -markdown: %v\nstderr: %s", err, stderr.String())
	}
	if got := string(out); got != want {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
		line := 0
		for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
			line++
		}
		var g, w string
		if line < len(gotLines) {
			g = gotLines[line]
		}
		if line < len(wantLines) {
			w = wantLines[line]
		}
		t.Errorf("mppexp -markdown differs from EXPERIMENTS.md at its line %d:\n got: %q\nwant: %q\n"+
			"if the change is meant, regenerate the file from the repository root with\n"+
			"  { head -n %d EXPERIMENTS.md; go run ./cmd/mppexp -markdown; } > EXPERIMENTS.md.new && mv EXPERIMENTS.md.new EXPERIMENTS.md",
			header+line+1, g, w, header)
	}
}
