package exp

import (
	"context"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode;
// each must complete and every shape check must pass. RunSafe is the
// production entry point, so panic isolation is exercised too.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := RunSafe(context.Background(), e, Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.Partial {
				t.Errorf("%s unexpectedly partial without any budget: %v", e.ID, tab.Notes)
			}
			if tab.ID != e.ID {
				t.Errorf("table ID %q ≠ experiment ID %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if len(tab.Checks) == 0 {
				t.Errorf("%s has no shape checks", e.ID)
			}
			for _, c := range tab.Checks {
				if !c.Pass {
					t.Errorf("%s check %q failed: %s", e.ID, c.Name, c.Detail)
				}
			}
		})
	}
}

// TestTablesDeterministic renders E14 and E15 (quick) ten times each and
// requires identical markdown: both emit rows from a fixed instance list,
// and a deterministic exact solve prints the same state counts every run.
func TestTablesDeterministic(t *testing.T) {
	for _, id := range []string{"E14", "E15"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		var first string
		for i := 0; i < 10; i++ {
			tab, err := RunSafe(context.Background(), e, Config{Quick: true})
			if err != nil {
				t.Fatalf("%s run %d: %v", id, i, err)
			}
			var md strings.Builder
			RenderMarkdown(&md, tab)
			if i == 0 {
				first = md.String()
			} else if md.String() != first {
				t.Fatalf("%s run %d renders differently:\n%s\nfirst run:\n%s", id, i, md.String(), first)
			}
		}
	}
}

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("e05"); !ok {
		t.Error("ByID case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID found a ghost")
	}
}

func TestRenderers(t *testing.T) {
	tab := &Table{
		ID: "EXX", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddCheck("chk", true, "fine %d", 42)
	tab.AddNote("note %s", "here")
	var txt, md strings.Builder
	Render(&txt, tab)
	RenderMarkdown(&md, tab)
	for _, want := range []string{"EXX", "PASS", "fine 42", "note here"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text render missing %q", want)
		}
	}
	for _, want := range []string{"## EXX", "| a | bb |", "✅", "**chk**"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown render missing %q", want)
		}
	}
	if !tab.Pass() {
		t.Error("Pass() false with passing checks")
	}
	tab.AddCheck("bad", false, "nope")
	if tab.Pass() {
		t.Error("Pass() true with failing check")
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{ID: "EXX", Columns: []string{"a", "b"}}
	tab.AddRow("1", "x,y") // comma must be quoted
	var b strings.Builder
	if err := RenderCSV(&b, tab); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}
