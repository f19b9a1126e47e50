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
// identically — so dropping B before it is even hashed cannot lose the
// optimum. The cheaper-cost condition must be *strict*: with ties the
// delete-successors of a settled state (equal cost, subset reds) would
// all be pruned against their own parent, severing the memory-freeing
// moves the search needs. See DESIGN.md §6 for the full soundness sketch.
//
// Pruning is only enabled in non-witness mode, alongside shade
// canonicalization (a pruned state has no parent edge, and the subset
// test per canonical position is what makes the processor matching
// sound). "Settled" means expanded: solver.asyncExpand adds each state's
// record at the g it expands with (async.go).
//
// Layout. Settled states are indexed by a (blue, computed) hash in an
// open-addressing side table. Each occupied slot holds its two key
// words and the head of a chain of records. A record is one run of k+2
// words in a single arena: the index of the next record in its chain,
// the g-cost its state was settled at, and the state's k canonical red
// words. A check walks its chain through that arena alone; it never
// reads the state table's arena or the dist array.
//
// Front. Record A covers record E when cost(A) ≤ cost(E) and A's red
// word is a superset of E's at every position. Every chain is kept a
// Pareto front under covering: add skips a record that a chain entry
// covers and unlinks the entries the new record covers, so no entry of
// a chain covers another.
//
// Why the front is exact. A covered record E answers a query (w, c)
// "dominated" only when its cover A does too: cost(A) ≤ cost(E) < c and
// w ⊆ E ⊆ A at every position. So dominated answers every query as a
// scan of every record ever added would. The surviving set is the front
// of everything settled, whatever the insertion order; identical records
// tie, and ties give identical answers. Chain order changes how many
// records a check visits, never what it answers.

const domEmptySlot = int32(-1)

// Record layout: word domNext holds the next record's index
// (domEmptySlot ends the chain), word domCost the settle-time g-cost,
// and the k red words follow from domReds.
const (
	domNext = 0
	domCost = 1
	domReds = 2
)

// domIndex maps (blue, computed) → a Pareto-front chain of settled
// records. The slot array is open-addressing with linear probing; each
// occupied slot stores its 2-word key and the head of a singly linked
// list threaded through the record arena.
type domIndex struct {
	slots []int32  // head record per slot, domEmptySlot when free
	keys  []uint64 // 2 words per slot: blue, computed
	mask  uint64
	used  int // occupied slots

	stride int      // words per record: k+2
	recs   []uint64 // record arena: record e occupies recs[e*stride:(e+1)*stride]
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
// slot array and record capacity, so a pooled solver's dominance index
// is reusable across searches without reallocating.
func (d *domIndex) reset(k int) {
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	d.used = 0
	d.stride = k + domReds
	d.recs = d.recs[:0]
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

// bucket returns the head record of the chain for (blue, computed), or
// domEmptySlot when no settled state has those words yet.
//
//mpp:hotpath
func (d *domIndex) bucket(blue, computed uint64) int32 {
	i := domHash(blue, computed) & d.mask
	for {
		h := d.slots[i]
		if h == domEmptySlot {
			return domEmptySlot
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			return h
		}
		i = (i + 1) & d.mask
	}
}

// rec returns record e's words.
//
//mpp:hotpath
func (d *domIndex) rec(e int32) []uint64 {
	at := int(e) * d.stride
	return d.recs[at : at+d.stride : at+d.stride]
}

// add settles a state: its record — g-cost and canonical red words —
// joins the chain of its (blue, computed) key unless an entry covers
// it, and the entries it covers leave the chain.
//
//mpp:hotpath
func (d *domIndex) add(blue, computed uint64, cost int64, reds []uint64) {
	if 4*(d.used+1) > 3*len(d.slots) {
		d.grow()
	}
	i := domHash(blue, computed) & d.mask
	for {
		h := d.slots[i]
		if h == domEmptySlot {
			d.used++
			d.keys[2*i] = blue
			d.keys[2*i+1] = computed
			break
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			break
		}
		i = (i + 1) & d.mask
	}
	prev := domEmptySlot
	for e := d.slots[i]; e != domEmptySlot; {
		r := d.rec(e)
		next := int32(r[domNext])
		rc := int64(r[domCost])
		if rc <= cost && redsCover(r, reds) {
			// The front holds no entry the new record could cover as
			// well (it would be covered by r), so nothing was unlinked.
			return
		}
		if cost <= rc && redsCovered(r, reds) {
			if prev == domEmptySlot {
				d.slots[i] = next
			} else {
				d.rec(prev)[domNext] = uint64(next)
			}
		} else {
			prev = e
		}
		e = next
	}
	e := int32(len(d.recs) / d.stride)
	d.recs = append(d.recs, uint64(d.slots[i]), uint64(cost))
	d.recs = append(d.recs, reds...)
	d.slots[i] = e
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

// grow doubles the slot array and reinserts every occupied slot's chain
// head (record chains are untouched — only the slot they hang off
// moves). Deliberately not a hot path: amortized over the fill factor.
func (d *domIndex) grow() {
	oldSlots, oldKeys := d.slots, d.keys
	n := 2 * len(oldSlots)
	d.slots = make([]int32, n)
	d.keys = make([]uint64, 2*n)
	d.mask = uint64(n - 1)
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	for i, h := range oldSlots {
		if h == domEmptySlot {
			continue
		}
		blue, computed := oldKeys[2*i], oldKeys[2*i+1]
		j := domHash(blue, computed) & d.mask
		for d.slots[j] != domEmptySlot {
			j = (j + 1) & d.mask
		}
		d.slots[j] = h
		d.keys[2*j] = blue
		d.keys[2*j+1] = computed
	}
}

// dominated reports whether a settled record under (blue, computed)
// strictly dominates a candidate with canonical red words reds at
// g-cost cost: a strictly cheaper record whose red words cover reds at
// every position. It also returns the number of records it visited.
//
//mpp:hotpath
func (d *domIndex) dominated(blue, computed uint64, reds []uint64, cost int64) (bool, int) {
	visits := 0
	for e := d.bucket(blue, computed); e != domEmptySlot; {
		r := d.rec(e)
		visits++
		if int64(r[domCost]) < cost && redsCover(r, reds) {
			return true, visits
		}
		e = int32(r[domNext])
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
