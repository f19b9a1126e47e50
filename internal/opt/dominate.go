package opt

// Dominance pruning over red configurations.
//
// A candidate state B is dominated by a settled (already expanded) state
// A when both have identical (blue, computed) words, A was settled at a
// strictly cheaper g-cost, and after shade canonicalization every
// per-processor red word of B is a subset of A's word at the same
// position. Any completion from B can then be simulated from A at no
// extra cost: A holds a superset of every value B holds, replayed moves
// stay legal (surplus red pebbles are deleted for free the moment a
// processor would overflow its memory), and blue/computed evolve
// identically — so dropping B cannot lose the optimum. The cheaper-cost
// condition must be *strict*: with ties the delete-successors of a
// settled state (equal cost, subset reds) would all be pruned against
// their own parent, severing the memory-freeing moves the search needs.
// See DESIGN.md §6 for the full soundness sketch.
//
// Pruning runs alongside shade canonicalization, which every search
// does: the subset test per canonical position is what makes the
// processor matching sound. A witness solve prunes the same candidates;
// a pruned state gets no parent edge, and the witness runs through its
// dominator instead. "Settled" means expanded: solver.expandEntry adds
// each state's record at the g it expands with (async.go).
//
// Where the check sits. solver.relax (exact.go), the one relaxation of
// a candidate on its owning shard, probes the state table first and
// drops a known state at a distance no greater than the candidate's
// cost; only the candidates that survive that probe — new states and
// cheaper paths to known ones — are checked here. Most candidates are
// such duplicates, so the probe spares most scans, and Result.Pruned
// counts only the rejections made here. A candidate survives only if it
// passes both checks, so their order moves no answer.
//
// Layout. Settled states are indexed by a (blue, computed) hash in an
// open-addressing side table. Each occupied slot holds its two key
// words and the index of its run: one contiguous slice of records. A
// record is k+1 words, the g-cost its state was settled at and the
// state's k canonical red words, and a run keeps its records sorted by
// cost, lowest first. A check reads its run front to back and stops at
// the first record that is not cheaper than the candidate: strict
// dominance can come neither from that record nor from any after it.
// It never reads the state table's arena or the dist array.
//
// Front. Record A covers record E when cost(A) ≤ cost(E) and A's red
// word is a superset of E's at every position. Every run is kept a
// Pareto front under covering: add skips a record that a run entry
// covers and compacts away the entries the new record covers, so no
// entry of a run covers another.
//
// Why the front is exact. A covered record E answers a query (w, c)
// "dominated" only when its cover A does too: cost(A) ≤ cost(E) < c and
// w ⊆ E ⊆ A at every position. So dominated answers every query as a
// scan of every record ever added would. The surviving set is the front
// of everything settled, whatever the insertion order; identical records
// tie, and ties give identical answers. Run order changes how many
// records a check visits, never what it answers.

const domEmptySlot = int32(-1)

// Record layout: word domCost holds the settle-time g-cost, and the k
// red words follow from domReds.
const (
	domCost = 0
	domReds = 1
)

// domIndex maps (blue, computed) → a cost-sorted Pareto-front run of
// settled records. The slot array is open-addressing with linear
// probing; each occupied slot stores its 2-word key and its run's index.
type domIndex struct {
	slots []int32  // run index per slot, domEmptySlot when free
	keys  []uint64 // 2 words per slot: blue, computed
	mask  uint64

	stride int // words per record: k+1
	// runs[r] holds run r's records back to back, sorted by cost. There
	// is one run per occupied slot; the runs past len are retired ones
	// whose capacity the next new key reuses, which is what a pooled
	// solver recycles.
	runs [][]uint64
}

func newDomIndex(k int) *domIndex {
	d := &domIndex{
		slots: make([]int32, 256),
		keys:  make([]uint64, 2*256),
		mask:  255,
	}
	d.reset(k)
	return d
}

// reset empties the index for k red words per record while keeping the
// slot array and every run's capacity, so a pooled solver's dominance
// index is reusable across searches without reallocating.
func (d *domIndex) reset(k int) {
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	d.stride = k + domReds
	d.runs = d.runs[:0]
}

// domHash mixes the two identity words (splitmix64-style finalizer).
//
//mpp:hotpath
func domHash(blue, computed uint64) uint64 {
	x := blue ^ 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x ^= computed
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lookup returns the run of (blue, computed), empty when no settled
// state has those words yet.
//
//mpp:hotpath
func (d *domIndex) lookup(blue, computed uint64) []uint64 {
	i := domHash(blue, computed) & d.mask
	for {
		r := d.slots[i]
		if r == domEmptySlot {
			return nil
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			return d.runs[r]
		}
		i = (i + 1) & d.mask
	}
}

// open returns the index of the run of (blue, computed), giving a new
// key an empty run: a retired one when one is held past len.
//
//mpp:hotpath
func (d *domIndex) open(blue, computed uint64) int32 {
	if 4*(len(d.runs)+1) > 3*len(d.slots) {
		d.grow()
	}
	i := domHash(blue, computed) & d.mask
	for {
		r := d.slots[i]
		if r == domEmptySlot {
			break
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			return r
		}
		i = (i + 1) & d.mask
	}
	r := int32(len(d.runs))
	if len(d.runs) < cap(d.runs) {
		d.runs = d.runs[:r+1]
		d.runs[r] = d.runs[r][:0]
	} else {
		d.runs = append(d.runs, nil)
	}
	d.slots[i] = r
	d.keys[2*i] = blue
	d.keys[2*i+1] = computed
	return r
}

// add settles a state: its record — g-cost and canonical red words —
// joins the run of its (blue, computed) key at its cost-sorted position
// unless an entry covers it, and the entries it covers leave the run.
// One pass: the records cheaper than cost can only cover the new one,
// and the rest, which cost at least as much, are compacted in place.
//
//mpp:hotpath
func (d *domIndex) add(blue, computed uint64, cost int64, reds []uint64) {
	ri := d.open(blue, computed)
	run, s := d.runs[ri], d.stride
	at := 0
	for ; at < len(run) && int64(run[at+domCost]) < cost; at += s {
		if redsCover(run[at:at+s:at+s], reds) {
			return
		}
	}
	keep := at
	for j := at; j < len(run); j += s {
		r := run[j : j+s : j+s]
		if int64(r[domCost]) == cost && redsCover(r, reds) {
			// Nothing was compacted away before this: a record the new
			// one covers would be covered by r too, and the run is a
			// front.
			return
		}
		if redsCovered(r, reds) {
			continue
		}
		if keep != j {
			copy(run[keep:], r)
		}
		keep += s
	}
	// Open a record's room at the sorted position: the new record goes
	// ahead of the kept records of equal or higher cost. Newest first
	// among equal costs is only an order, not a rule of the front; on
	// the benchmark's solves it reads 3–8% fewer records than oldest
	// first (DESIGN.md §6).
	run = append(run[:keep], reds...)
	run = append(run, 0)
	copy(run[at+s:], run[at:keep])
	run[at+domCost] = uint64(cost)
	copy(run[at+domReds:at+s], reds)
	d.runs[ri] = run
}

// redsCover reports whether record r's red words are supersets of
// reds, position by position.
//
//mpp:hotpath
func redsCover(r, reds []uint64) bool {
	for p, w := range reds {
		if w&^r[domReds+p] != 0 {
			return false
		}
	}
	return true
}

// redsCovered reports whether record r's red words are subsets of reds,
// position by position.
//
//mpp:hotpath
func redsCovered(r, reds []uint64) bool {
	for p, w := range reds {
		if r[domReds+p]&^w != 0 {
			return false
		}
	}
	return true
}

// grow doubles the slot array and reinserts every occupied slot's run
// index (the runs are untouched — only the slot they hang off moves).
// Deliberately not a hot path: amortized over the fill factor.
func (d *domIndex) grow() {
	oldSlots, oldKeys := d.slots, d.keys
	n := 2 * len(oldSlots)
	d.slots = make([]int32, n)
	d.keys = make([]uint64, 2*n)
	d.mask = uint64(n - 1)
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	for i, r := range oldSlots {
		if r == domEmptySlot {
			continue
		}
		blue, computed := oldKeys[2*i], oldKeys[2*i+1]
		j := domHash(blue, computed) & d.mask
		for d.slots[j] != domEmptySlot {
			j = (j + 1) & d.mask
		}
		d.slots[j] = r
		d.keys[2*j] = blue
		d.keys[2*j+1] = computed
	}
}

// arenaBytes is the capacity the index pins, retired runs included, for
// the pool's retention cap.
func (d *domIndex) arenaBytes() int64 {
	b := int64(cap(d.slots))*4 + int64(cap(d.keys))*8 + int64(cap(d.runs))*sliceHdrBytes
	for _, r := range d.runs[:cap(d.runs)] {
		b += int64(cap(r)) * 8
	}
	return b
}

// dominated reports whether a settled record under (blue, computed)
// strictly dominates a candidate with canonical red words reds at
// g-cost cost: a strictly cheaper record whose red words cover reds at
// every position. It also returns the number of records it visited,
// the record whose cost ends the scan included.
//
//mpp:hotpath
func (d *domIndex) dominated(blue, computed uint64, reds []uint64, cost int64) (bool, int) {
	run, s := d.lookup(blue, computed), d.stride
	visits := 0
	for at := 0; at < len(run); at += s {
		r := run[at : at+s : at+s]
		visits++
		if int64(r[domCost]) >= cost {
			return false, visits
		}
		if redsCover(r, reds) {
			return true, visits
		}
	}
	return false, visits
}

// dominated reports whether the candidate words w (already
// canonicalized) at g-cost cost are strictly dominated by some settled
// state. States are sharded by their (blue, computed) words (see
// parallel.go), so every potential dominator of w lives on this shard:
// the check needs no cross-shard traffic. The records visited are
// counted into domVisits, the work measure the tests pin.
//
//mpp:hotpath
func (s *solver) dominated(w []uint64, cost int64) bool {
	k := s.in.K
	dom, visits := s.dom.dominated(w[k], w[k+1], w[:k], cost)
	s.domVisits += visits
	return dom
}
