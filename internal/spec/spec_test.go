package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestParseDAGKinds(t *testing.T) {
	cases := []struct {
		spec  string
		wantN int
	}{
		{"chain:5", 5},
		{"chains:2,4", 8},
		{"intree:2", 7},
		{"outtree:2", 7},
		{"grid:3,4", 12},
		{"pyramid:3", 10},
		{"fft:3", 32},
		{"matmul:2", 20},
		{"zipper:2,5", 9},
		{"zipper:2,5,3", 9 + 4*3},
		{"fanchain:3,4", 7},
		{"cyclic:6,2,5,2", 11},
		{"broom:2,2,3", 14},
		{"trapg:2,3", 14},
		{"random:20,0.2,3,7", 20},
		{"twolayer:3,4,0.5,1", 7},
	}
	for _, c := range cases {
		g, err := ParseDAG(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("%s: n = %d, want %d", c.spec, g.N(), c.wantN)
		}
	}
}

func TestParseDAGFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := gen.Chain(6)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ParseDAG("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 6 {
		t.Fatalf("file round trip n = %d", got.N())
	}
	if _, err := ParseDAG("file:/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseDAGErrors(t *testing.T) {
	for _, spec := range []string{
		"nope:3", "chain:x", "chains:1", "random:1,2,3",
		"twolayer:1,2,3", "random:a,b,c,d",
		// A surplus value is refused, not dropped.
		"grid:3,3,3", "chain:5,9", "zipper:2,3,0,9", "pyramid:3,1",
		"fanchain:3,4,5", "cyclic:6,2,5,2,1", "random:8,0.3,2,1,5",
	} {
		if _, err := ParseDAG(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
	if _, err := ParseDAG("nope:1"); err == nil || !strings.Contains(err.Error(), "syntax") {
		t.Error("error should include syntax help")
	}
}

func TestParseSchedulers(t *testing.T) {
	all, err := ParseSchedulers("all")
	if err != nil || len(all) < 5 {
		t.Fatalf("all: %v (%d schedulers)", err, len(all))
	}
	one, err := ParseSchedulers("greedy:fraction,high,fewest")
	if err != nil || len(one) != 1 {
		t.Fatal("greedy parse failed")
	}
	if one[0].Name() != "greedy(fraction,high,fewest)" {
		t.Errorf("greedy options not applied: %s", one[0].Name())
	}
	if _, err := ParseSchedulers("greedy:bogus"); err == nil {
		t.Error("bad greedy option accepted")
	}
	part, err := ParseSchedulers("partitioned:levels")
	if err != nil || len(part) != 1 {
		t.Fatal("partitioned parse failed")
	}
	if _, err := ParseSchedulers("partitioned:nope"); err == nil {
		t.Error("bad partition accepted")
	}
	if _, err := ParseSchedulers("random:1,2,3"); err == nil {
		t.Error("surplus random option accepted")
	}
	if _, err := ParseSchedulers("wat"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if b, err := ParseSchedulers("baseline"); err != nil || b[0].Name() != "baseline" {
		t.Error("baseline parse failed")
	}
}
