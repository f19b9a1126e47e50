package opt

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// domRecord is one record as the brute-force reference keeps it.
type domRecord struct {
	cost int64
	reds []uint64
}

// redsSubset reports a ⊆ b at every position.
func redsSubset(a, b []uint64) bool {
	for p := range a {
		if a[p]&^b[p] != 0 {
			return false
		}
	}
	return true
}

// runOf returns the records on the run of (blue, computed), in run
// order.
func runOf(d *domIndex, blue, computed uint64) []domRecord {
	var out []domRecord
	run := d.lookup(blue, computed)
	for at := 0; at < len(run); at += d.stride {
		r := run[at : at+d.stride]
		out = append(out, domRecord{int64(r[domCost]), append([]uint64(nil), r[domReds:]...)})
	}
	return out
}

// TestDomIndexMatchesBruteForce drives the dominance index with seeded
// random record streams and holds it against a brute-force scan of
// every record ever added. Small k, a few (blue, computed) keys, and
// reds from a small universe make covers and ties common. Most seeds
// draw costs from 0..5; every fourth draws them from clusters 2⁴⁰
// apart, as a large g spreads them. The zoo's table-versus-Ref
// equivalence runs cannot catch a bug here: both of their runs share
// the index.
//
// Every query must answer exactly as the scan, and visit the records up
// to the first that is not cheaper than the query or covers it. After
// every add the key's run must be sorted by cost, lowest first, and
// hold exactly the Pareto front of the key's records: each entry is a
// record that was added, no entry covers another, and every record ever
// added is covered by some entry. Every run is checked so once more at
// the end of each seed. One index is reused across seeds through reset,
// as the solver pool does, and some seeds use enough keys to grow the
// slot array. OPT_SWEEP=1 runs 5 000 seeds instead of 200.
func TestDomIndexMatchesBruteForce(t *testing.T) {
	seeds := int64(200)
	if os.Getenv("OPT_SWEEP") != "" {
		seeds = 5000
	}
	var d *domIndex
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		nKeys := 1 + rng.Intn(4)
		if seed%10 == 9 {
			nKeys = 600 // past the 256 initial slots: exercises grow
		}
		if d == nil {
			d = newDomIndex(k)
		} else {
			d.reset(k)
		}
		// Keys 0..nKeys-1 receive records; queries also ask key nKeys,
		// which never does.
		key := func(n int) [2]uint64 {
			i := uint64(rng.Intn(n))
			return [2]uint64{i % 3, i / 3}
		}
		reds := func() []uint64 {
			r := make([]uint64, k)
			for p := range r {
				r[p] = uint64(rng.Intn(8))
			}
			return r
		}
		cost := func() int64 { return rng.Int63n(6) }
		if seed%4 == 3 {
			cost = func() int64 { return rng.Int63n(3)<<40 + rng.Int63n(3) }
		}
		added := make(map[[2]uint64][]domRecord)
		for op := 0; op < 600; op++ {
			rec := domRecord{cost(), reds()}
			if rng.Intn(2) == 0 {
				kw := key(nKeys)
				d.add(kw[0], kw[1], rec.cost, rec.reds)
				added[kw] = append(added[kw], rec)
				checkFront(t, seed, runOf(d, kw[0], kw[1]), added[kw])
				continue
			}
			kw := key(nKeys + 1)
			want := false
			for _, r := range added[kw] {
				if r.cost < rec.cost && redsSubset(rec.reds, r.reds) {
					want = true
					break
				}
			}
			got, visits := d.dominated(kw[0], kw[1], rec.reds, rec.cost)
			if got != want {
				t.Fatalf("seed %d op %d: key %v: dominated(reds %v, cost %d) = %v, brute force says %v",
					seed, op, kw, rec.reds, rec.cost, got, want)
			}
			run := runOf(d, kw[0], kw[1])
			wantVisits := len(run)
			for i, r := range run {
				if r.cost >= rec.cost || redsSubset(rec.reds, r.reds) {
					wantVisits = i + 1
					break
				}
			}
			if visits != wantVisits {
				t.Fatalf("seed %d op %d: key %v: dominated(reds %v, cost %d) visited %d records of run %v, want %d",
					seed, op, kw, rec.reds, rec.cost, visits, run, wantVisits)
			}
		}
		for kw, recs := range added {
			checkFront(t, seed, runOf(d, kw[0], kw[1]), recs)
		}
	}
}

// checkFront asserts that run is sorted by cost and is the Pareto front
// of the records added under its key.
func checkFront(t *testing.T, seed int64, run, added []domRecord) {
	t.Helper()
	for i, a := range run {
		if i > 0 && run[i-1].cost > a.cost {
			t.Fatalf("seed %d: run entry %d costs %d after an entry of cost %d: not sorted", seed, i, a.cost, run[i-1].cost)
		}
		for j, b := range run {
			if i != j && a.cost <= b.cost && redsSubset(b.reds, a.reds) {
				t.Fatalf("seed %d: run entry %v covers entry %v: not a front", seed, a, b)
			}
		}
		if !slices.ContainsFunc(added, func(r domRecord) bool { return r.cost == a.cost && slices.Equal(r.reds, a.reds) }) {
			t.Fatalf("seed %d: run entry %v was never added", seed, a)
		}
	}
	for _, r := range added {
		covered := false
		for _, a := range run {
			if a.cost <= r.cost && redsSubset(r.reds, a.reds) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("seed %d: record %v added but no run entry covers it", seed, r)
		}
	}
}

// TestDominanceVisitGate pins the work of the dominance index: the
// records dominated visits in ModeDeterministic, whose one-shard run
// makes the count deterministic. A visit is every record a check reads,
// the one whose cost ends the scan included. Only relaxations the state
// table did not reject are scanned: a duplicate at no greater cost is
// dropped by its probe before any record is read (solver.relax). A
// change that makes checks walk more records, or run them ahead of the
// probe, shows up here even when every answer, and so States and
// Pruned, stays the same. The rows are grid 3×3 at MPP(2,3,2)
// (States and Pruned pinned by the golden row grid3x3-k2/default) and
// pyramid(3) at MPP(2,4,4) stopped by a 10⁴-state budget, a k=2 search
// whose checks read long runs. DESIGN.md §6 sets the counts against
// chains that keep every settled state and against unsorted chains.
func TestDominanceVisitGate(t *testing.T) {
	cases := []struct {
		name       string
		in         *pebble.Instance
		maxStates  int
		wantVisits int
	}{
		{"grid3x3-k2", pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 3, 2)), goldenBudget, 997_362},
		{"pyramid3-k2-budget", pebble.MustInstance(gen.Pyramid(3), pebble.MPP(2, 4, 4)), 10_000, 2_030_582},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, visits, err := exactVisits(c.in, seqConfig(c.maxStates))
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if visits != c.wantVisits {
				t.Errorf("dominance checks visited %d records, want %d", visits, c.wantVisits)
			}
		})
	}
}
