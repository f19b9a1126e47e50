package opt

import (
	"math/rand"
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

// chainOf returns the records on the chain of (blue, computed).
func chainOf(d *domIndex, blue, computed uint64) []domRecord {
	var out []domRecord
	for e := d.bucket(blue, computed); e != domEmptySlot; {
		r := d.rec(e)
		out = append(out, domRecord{int64(r[domCost]), append([]uint64(nil), r[domReds:]...)})
		e = int32(r[domNext])
	}
	return out
}

// TestDomIndexMatchesBruteForce drives the dominance index with seeded
// random record streams and holds it against a brute-force scan of
// every record ever added. Small k, a few (blue, computed) keys, and
// costs and reds from small universes make covers and ties common. The
// zoo's table-versus-Ref equivalence runs cannot catch a bug here: both
// of their runs share the index.
//
// Every query must answer exactly as the scan, and after every add the
// chain must be the Pareto front of its key's records: no entry covers
// another, and every record ever added is covered by some entry. One
// index is reused across seeds through reset, as the solver pool does,
// and some seeds use enough keys to grow the slot array.
func TestDomIndexMatchesBruteForce(t *testing.T) {
	var d *domIndex
	for seed := int64(0); seed < 200; seed++ {
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
		added := make(map[[2]uint64][]domRecord)
		for op := 0; op < 600; op++ {
			rec := domRecord{int64(rng.Intn(6)), reds()}
			if rng.Intn(2) == 0 {
				kw := key(nKeys)
				d.add(kw[0], kw[1], rec.cost, rec.reds)
				added[kw] = append(added[kw], rec)
				checkFront(t, seed, chainOf(d, kw[0], kw[1]), added[kw])
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
			if got, _ := d.dominated(kw[0], kw[1], rec.reds, rec.cost); got != want {
				t.Fatalf("seed %d op %d: key %v: dominated(reds %v, cost %d) = %v, brute force says %v",
					seed, op, kw, rec.reds, rec.cost, got, want)
			}
		}
	}
}

// checkFront asserts that chain is the Pareto front of the records
// added under its key.
func checkFront(t *testing.T, seed int64, chain, added []domRecord) {
	t.Helper()
	for i, a := range chain {
		for j, b := range chain {
			if i != j && a.cost <= b.cost && redsSubset(b.reds, a.reds) {
				t.Fatalf("seed %d: chain entry %v covers entry %v: not a front", seed, a, b)
			}
		}
	}
	for _, r := range added {
		covered := false
		for _, a := range chain {
			if a.cost <= r.cost && redsSubset(r.reds, a.reds) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("seed %d: record %v added but no chain entry covers it", seed, r)
		}
	}
}

// TestDominanceVisitGate pins the work of the dominance index: the
// records dominated visits on grid 3×3 at MPP(2,3,2) in ModeDeterministic,
// whose one-shard run makes the count deterministic. A change that
// makes checks walk more records shows up here even when
// every answer, and so States and Pruned (pinned by the golden row
// grid3x3-k2/default), stays the same. DESIGN.md §6 sets the count
// against chains that keep every settled state.
func TestDominanceVisitGate(t *testing.T) {
	in := pebble.MustInstance(gen.Grid2D(3, 3), pebble.MPP(2, 3, 2))
	_, visits, err := exactVisits(in, seqConfig(goldenBudget))
	if err != nil {
		t.Fatal(err)
	}
	const wantVisits = 7_784_361
	if visits != wantVisits {
		t.Errorf("dominance checks visited %d records, want %d", visits, wantVisits)
	}
}
