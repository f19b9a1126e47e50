package opt

// This file holds the allocation-free machinery under the exact solver:
// the packed word layout of a search state and the monotone bucket
// priority queue that replaces container/heap.
//
// A state is k+2 consecutive uint64 words — red[0..k-1], blue, computed —
// stored directly as a hashtab key, so the table's arena doubles as the
// state store and a state's identity is its dense table index. No string
// key, no per-state struct, no boxing.

// stateWords returns the packed width of a state for k processors.
func stateWords(k int) int { return k + 2 }

// canonicalizeRed sorts the red words in place so permuting processor
// shades collapses to one state (insertion sort; k is tiny). Only sound
// when no move sequence must be reconstructed.
//
//mpp:hotpath
func canonicalizeRed(red []uint64) {
	for i := 1; i < len(red); i++ {
		for j := i; j > 0 && red[j] < red[j-1]; j-- {
			red[j], red[j-1] = red[j-1], red[j]
		}
	}
}

// bqEntry is one queue element: a state's table index plus the g-cost it
// was pushed with (stale entries are detected by comparing g to dist).
type bqEntry struct {
	idx int32
	g   int64
}

// bucketQueue is a monotone bucket (calendar) priority queue over integer
// f-values. A* with an admissible, consistent heuristic (every mode of
// the heuristic stack qualifies) pops f in non-decreasing order, so a
// single forward-moving cursor over an array of buckets replaces the
// binary heap: push is an append, pop is a slice shrink, and nothing is
// boxed through an interface. Ties within a bucket pop LIFO (popBucket),
// a pure function of the push sequence — the oracle solvers share this
// queue, so expansion order (hence States counts) matches exactly.
type bucketQueue struct {
	buckets [][]bqEntry
	cur     int // lowest possibly-non-empty f; only moves forward in pop
	size    int
}

// growBuckets widens the bucket array to cover f-value fi. The I/O-aware
// heuristics scale f with g, so the key range is up to g times wider than
// under the bare compute floor; geometric growth with headroom keeps this
// off the hot path (it runs O(log maxF) times per search).
func (q *bucketQueue) growBuckets(fi int) {
	want := 2 * len(q.buckets)
	if want <= fi {
		want = fi + 1
	}
	q.buckets = append(q.buckets, make([][]bqEntry, want-len(q.buckets))...)
}

//mpp:hotpath
func (q *bucketQueue) push(f int64, idx int32, g int64) {
	fi := int(f)
	if fi >= len(q.buckets) {
		q.growBuckets(fi)
	}
	if fi < q.cur {
		// Unreachable with a consistent heuristic; kept so the queue
		// stays correct (not just monotone-correct) under any heuristic.
		q.cur = fi
	}
	q.buckets[fi] = append(q.buckets[fi], bqEntry{idx: idx, g: g})
	q.size++
}

// popBucket removes and returns one entry from bucket f (false when the
// bucket is empty or out of range). Within a bucket the order is LIFO,
// which keeps the search depth-first across an f-plateau — successors
// of the newest same-f state are tried first, reaching goal states (and
// hence incumbent pruning) sooner.
//
//mpp:hotpath
func (q *bucketQueue) popBucket(f int64) (bqEntry, bool) {
	fi := int(f)
	if fi >= len(q.buckets) || len(q.buckets[fi]) == 0 {
		return bqEntry{}, false
	}
	b := q.buckets[fi]
	ent := b[len(b)-1]
	q.buckets[fi] = b[:len(b)-1]
	q.size--
	return ent, true
}

// reset empties the queue while keeping every bucket's capacity, so a
// pooled solver's queue is reusable across searches without reallocating.
func (q *bucketQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.cur = 0
	q.size = 0
}

// minF returns the smallest f-value currently queued (false when empty).
// With the consistent heuristic this is an admissible lower bound on any
// solution still undiscovered — the anytime bound reported by an early
// stop. Advancing cur past drained buckets is safe: f only grows.
//
//mpp:hotpath
func (q *bucketQueue) minF() (int64, bool) {
	if q.size == 0 {
		return 0, false
	}
	for len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	return int64(q.cur), true
}
