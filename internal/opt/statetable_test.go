package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/pebble"
)

// refQueue is the bucket queue's specification: a flat list popped in
// (f ascending, h = f − g ascending, latest push first) order.
type refQueue struct {
	ents []refEntry
	seq  int
}

type refEntry struct {
	f   int64
	ent bqEntry
	seq int
}

func (r *refQueue) push(f int64, idx int32, g int64) {
	r.seq++
	r.ents = append(r.ents, refEntry{f: f, ent: bqEntry{idx: idx, g: g}, seq: r.seq})
}

// best returns the index of the entry popped next, -1 when empty.
func (r *refQueue) best() int {
	bi := -1
	for i, e := range r.ents {
		if bi < 0 {
			bi = i
			continue
		}
		b := r.ents[bi]
		h, bh := e.f-e.ent.g, b.f-b.ent.g
		if e.f < b.f || e.f == b.f && (h < bh || h == bh && e.seq > b.seq) {
			bi = i
		}
	}
	return bi
}

func (r *refQueue) pop() (refEntry, bool) {
	i := r.best()
	if i < 0 {
		return refEntry{}, false
	}
	e := r.ents[i]
	r.ents = append(r.ents[:i], r.ents[i+1:]...)
	return e, true
}

func (r *refQueue) minFWhere(keep func(bqEntry) bool) (int64, bool) {
	m, ok := int64(0), false
	for _, e := range r.ents {
		if keep(e.ent) && (!ok || e.f < m) {
			m, ok = e.f, true
		}
	}
	return m, ok
}

// TestBucketQueueOrder holds the bucket queue to refQueue on seeded
// random streams of what the search does to it: pushes at and above the
// current f (and, as a remote shard's candidate may, below it), pops,
// re-pushes of a popped entry (a refused expansion), pushes into the
// current bucket at a deeper g, and reset followed by reuse. f-values
// are spread over a wide range, as a large g spreads them, so sparse
// keys are inserted between existing ones. After every step minF and a
// liveMinF-style scan must agree with the reference.
func TestBucketQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			scale := int64(1)
			if seed%2 == 0 {
				scale = 1 << 40
			}
			var q bucketQueue
			var ref refQueue
			var last refEntry
			popped := false
			idx := int32(0)
			pushAt := func(f, g int64) {
				idx++
				q.push(f, idx, g)
				ref.push(f, idx, g)
			}
			for step := 0; step < 3000; step++ {
				base, _ := ref.minFWhere(func(bqEntry) bool { return true })
				switch op := rng.Intn(20); {
				case op < 8: // push at or above the lowest f
					f := base + scale*rng.Int63n(4) + rng.Int63n(3)
					pushAt(f, rng.Int63n(f+1))
				case op == 8: // push below it
					f := base - scale*rng.Int63n(2) - rng.Int63n(3)
					if f < 0 {
						f = 0
					}
					pushAt(f, rng.Int63n(f+1))
				case op == 9 && popped: // a refused expansion re-pushes
					q.push(last.f, last.ent.idx, last.ent.g)
					ref.push(last.f, last.ent.idx, last.ent.g)
				case op == 10 && popped: // deeper g in the current bucket
					if d := last.f - last.ent.g; d > 0 {
						pushAt(last.f, last.ent.g+1+rng.Int63n(d))
					}
				case op == 11 && rng.Intn(50) == 0:
					q.reset()
					ref = refQueue{seq: ref.seq}
					popped = false
				case op >= 12: // pop the lowest f, as solver.loop does
					f, ok := q.minF()
					want, wok := ref.pop()
					if ok != wok {
						t.Fatalf("step %d: minF ok=%v, reference non-empty=%v", step, ok, wok)
					}
					if !ok {
						break
					}
					ent, ok := q.popBucket(f)
					if !ok || f != want.f || ent != want.ent {
						t.Fatalf("step %d: popped f=%d %+v (ok=%v), want f=%d %+v", step, f, ent, ok, want.f, want.ent)
					}
					last, popped = want, true
				}
				if q.size != len(ref.ents) {
					t.Fatalf("step %d: size %d, want %d", step, q.size, len(ref.ents))
				}
				all := func(bqEntry) bool { return true }
				f, ok := q.minF()
				wf, wok := ref.minFWhere(all)
				if f != wf || ok != wok {
					t.Fatalf("step %d: minF = %d, %v; want %d, %v", step, f, ok, wf, wok)
				}
				odd := func(e bqEntry) bool { return e.idx%2 == 1 }
				f, ok = q.minFWhere(odd)
				wf, wok = ref.minFWhere(odd)
				if f != wf || ok != wok {
					t.Fatalf("step %d: minFWhere = %d, %v; want %d, %v", step, f, ok, wf, wok)
				}
			}
			if _, ok := q.popBucket(math.MaxInt64); ok {
				t.Error("popBucket of an absent f returned an entry")
			}
		})
	}
}

// TestQueueMemoryIndependentOfG: the queue keys buckets by the f-values
// a search queues, not by their size, so raising g leaves a solve's
// allocations where they were. A queue indexed densely by f allocated
// about 24 B per unit of g here (48 MB at g = 2·10⁶), and at g near
// 2⁶² could not be allocated at all.
func TestQueueMemoryIndependentOfG(t *testing.T) {
	solve := func(g int) (*Result, uint64) {
		in := pebble.MustInstance(gen.Grid2D(2, 2), pebble.MPP(1, 4, g))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ExactWith(context.Background(), in, seqConfig(budget))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	small, base := solve(2)
	for _, g := range []int{2_000_000, math.MaxInt32} {
		t.Run(fmt.Sprint("g=", g), func(t *testing.T) {
			res, bytes := solve(g)
			if res.States != small.States {
				t.Errorf("g=%d expanded %d states, g=2 expanded %d", g, res.States, small.States)
			}
			if bytes > base+1<<20 {
				t.Errorf("g=%d allocated %d bytes, g=2 allocated %d: more than 1 MiB apart", g, bytes, base)
			}
		})
	}
}
