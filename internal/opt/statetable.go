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
// shades collapses to one state (insertion sort; k is tiny). A witness
// solve recovers the permutation when it rebuilds the move sequence
// (engine.reconstruct sorts the same way).
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

// bucketQueue is a monotone bucket priority queue over integer f-values.
// A* with an admissible, consistent heuristic (every mode of the
// heuristic stack qualifies) pops f in non-decreasing order, so a cursor
// over sorted buckets replaces the binary heap: push is an append, pop
// is a slice shrink, and nothing is boxed through an interface.
//
// Each f-bucket is split by h = f − g, and popBucket takes the entry
// with the lowest h — the deepest g — and the latest push among equal h.
// With a consistent heuristic any order inside the lowest f-bucket keeps
// A* exact and expands each state once, at its final g; deepest-first
// walks the f = OPT plateau toward a goal, whose relaxation sets the
// incumbent that ends the search (DESIGN.md §6). The order is a pure
// function of the push sequence, so an oracle run, which shares this
// queue, expands in exactly the same order.
//
// Keys are sparse: lists holds one hList per (f, h) pair queued since
// reset, sorted by f then h, so an f-bucket is a run of lists. A search
// queues tens of distinct keys whatever g is, so memory follows the
// entries and keys, never the size of the costs. The lists past len
// are retired ones whose entry slices the next inserted key reuses,
// which is what a pooled solver recycles.
type bucketQueue struct {
	lists []hList // sorted by (f, h); lists[:cur] are empty
	cur   int     // index of the lowest possibly non-empty list
	last  int     // index of the last list pushed to (a hint)
	size  int
}

// hList holds the entries of one (f, h) key, popped LIFO.
type hList struct {
	f, h int64
	ents []bqEntry
}

//mpp:hotpath
func (q *bucketQueue) push(f int64, idx int32, g int64) {
	h := f - g
	i := q.last
	if i >= len(q.lists) || q.lists[i].f != f || q.lists[i].h != h {
		var found bool
		if i, found = q.find(f, h); !found {
			q.insert(i, f, h)
		}
		q.last = i
	}
	if i < q.cur {
		// A key below the lowest queued one: a deeper g in the current
		// f-bucket, or, on W > 1 shards, a remote candidate below it.
		q.cur = i
	}
	l := &q.lists[i]
	l.ents = append(l.ents, bqEntry{idx: idx, g: g})
	q.size++
}

// find returns the index of key (f, h), or the index it would be
// inserted at and false.
//
//mpp:hotpath
func (q *bucketQueue) find(f, h int64) (int, bool) {
	lo, hi := 0, len(q.lists)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l := &q.lists[mid]; l.f < f || l.f == f && l.h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(q.lists) && q.lists[lo].f == f && q.lists[lo].h == h
}

// insert opens an empty list for key (f, h) at index i, reusing a
// retired list's capacity when one is held past len. Cold: it runs once
// per distinct key a search queues.
func (q *bucketQueue) insert(i int, f, h int64) {
	n := len(q.lists)
	if n < cap(q.lists) {
		q.lists = q.lists[:n+1]
	} else {
		q.lists = append(q.lists, hList{})
	}
	spare := q.lists[n].ents[:0]
	copy(q.lists[i+1:], q.lists[i:n])
	q.lists[i] = hList{f: f, h: h, ents: spare}
}

// popBucket removes and returns the lowest f-bucket's entry with the
// lowest h, the latest pushed among equal h; false when the queue is
// empty or its lowest f is not f. Call it with the f minF reports.
//
//mpp:hotpath
func (q *bucketQueue) popBucket(f int64) (bqEntry, bool) {
	if m, ok := q.minF(); !ok || m != f {
		return bqEntry{}, false
	}
	l := &q.lists[q.cur]
	ent := l.ents[len(l.ents)-1]
	l.ents = l.ents[:len(l.ents)-1]
	q.size--
	return ent, true
}

// reset empties the queue in O(1) while keeping every list's capacity,
// so a pooled solver's queue is reusable across searches without
// reallocating: the lists past len are retired, and insert clears one
// as it reuses it.
func (q *bucketQueue) reset() {
	q.lists = q.lists[:0]
	q.cur, q.last, q.size = 0, 0, 0
}

// minF returns the smallest f-value currently queued (false when empty).
// With the consistent heuristic this is an admissible lower bound on any
// solution still undiscovered — the anytime bound reported by an early
// stop. Advancing cur past drained lists is safe: push moves it back
// when a key below it fills.
//
//mpp:hotpath
func (q *bucketQueue) minF() (int64, bool) {
	if q.size == 0 {
		return 0, false
	}
	for len(q.lists[q.cur].ents) == 0 {
		q.cur++
	}
	return q.lists[q.cur].f, true
}

// minFWhere returns the smallest f-value holding an entry that keep
// accepts (false when none does). Cold: it scans every queued entry.
func (q *bucketQueue) minFWhere(keep func(bqEntry) bool) (int64, bool) {
	for _, l := range q.lists[q.cur:] {
		for _, ent := range l.ents {
			if keep(ent) {
				return l.f, true
			}
		}
	}
	return 0, false
}

// Per-element sizes for arenaBytes, matching the queue's element types.
const (
	bqEntryBytes = 16 // bqEntry: int32 idx + int64 g, padded
	hListBytes   = 40 // hList: f, h and the entries slice header
)

// arenaBytes is the capacity the queue pins, retired lists included,
// for the pool's retention cap.
func (q *bucketQueue) arenaBytes() int64 {
	b := int64(cap(q.lists)) * hListBytes
	for _, l := range q.lists[:cap(q.lists)] {
		b += int64(cap(l.ents)) * bqEntryBytes
	}
	return b
}
