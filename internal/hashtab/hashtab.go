// Package hashtab provides an open-addressing hash table keyed by
// fixed-width []uint64 words, the state-identity structure of the exact
// solvers. A packed pebbling configuration (or computed-set bitset) is a
// short run of words; hashing those words directly removes the per-state
// string-key allocation a map[string] requires and keeps every key in one
// contiguous arena.
//
// The table is insert-only (no deletion, hence no tombstones): search
// memoization and dist maps only ever grow. Each inserted key receives a
// dense, stable index 0,1,2,…, so callers keep their values in plain
// slices indexed by the returned handle — the table itself stores no
// values. The map-backed Ref type implements the identical contract and
// serves as the property-test oracle.
package hashtab

import "math/bits"

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ShardOf partitions a 64-bit hash over n shards with the multiply-shift
// reduction: the high 64 bits of h·n are uniform over [0, n) for a
// well-mixed h, with no modulo bias and no division. The sharded exact
// solver assigns state ownership with it; since the result is a pure
// function of (h, n), the partition is identical across runs — the
// property the solver's cross-worker determinism rests on. n must be
// positive; n == 1 always yields shard 0.
//
//mpp:hotpath
func ShardOf(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// Hash returns a 64-bit hash of the key words: FNV-1a over each word,
// finished with a splitmix64-style avalanche so that keys differing only
// in high bits still spread over small power-of-two slot arrays.
//
//mpp:hotpath
func Hash(key []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range key {
		h ^= w
		h *= fnvPrime
	}
	// Avalanche finisher (splitmix64): FNV alone mixes low bits poorly
	// for word-granular input; the masked slot index needs every input
	// bit to reach the low bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Table maps fixed-width []uint64 keys to dense indices via linear-probe
// open addressing. The zero value is not usable; call New.
//
// A slot is an int32: -1 when empty, else a key index in its low bits
// and a tag in the bits above them. A slot array of 2^b slots holds
// indices below ¾·2^b, so bits b..30 of an occupied slot are free; they
// carry hash bits 32+b..62 of the key, which the slot position (hash
// bits 0..b-1) does not use. A probe compares tags before it reads the
// key arena, so a probe step that lands on another key reads the arena
// only when the two tags collide.
type Table struct {
	wpk     int      // words per key
	keys    []uint64 // arena: key i occupies keys[i*wpk : (i+1)*wpk]
	slots   []int32  // slot array: -1 = empty, else tag | key index
	mask    uint64   // len(slots)-1, len(slots) a power of two
	tagMask uint32   // slot bits above the index: 0x7fffffff &^ mask
	limit   int      // grow when Len() reaches this (¾ load)
}

// New returns an empty table for keys of wordsPerKey words, pre-sized to
// hold about capacityHint keys without growing. A non-positive width
// panics — a programmer error; every caller derives it from a validated
// instance.
func New(wordsPerKey, capacityHint int) *Table {
	if wordsPerKey <= 0 {
		panic("hashtab: wordsPerKey must be positive")
	}
	slots := 16
	for slots*3/4 < capacityHint {
		slots *= 2
	}
	t := &Table{wpk: wordsPerKey}
	t.initSlots(slots)
	if capacityHint > 0 {
		t.keys = make([]uint64, 0, capacityHint*wordsPerKey)
	}
	return t
}

func (t *Table) initSlots(n int) {
	t.slots = make([]int32, n)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.mask = uint64(n - 1)
	t.tagMask = 0x7fffffff &^ uint32(t.mask)
	t.limit = n * 3 / 4
}

// Len returns the number of distinct keys inserted.
func (t *Table) Len() int { return len(t.keys) / t.wpk }

// WordsPerKey returns the fixed key width in words.
func (t *Table) WordsPerKey() int { return t.wpk }

// Key returns the stored words of key i as a view into the arena. The
// view is invalidated by the next Insert (the arena may move); callers
// needing the key across inserts must copy it.
func (t *Table) Key(i int) []uint64 {
	return t.keys[i*t.wpk : (i+1)*t.wpk : (i+1)*t.wpk]
}

//mpp:hotpath
func (t *Table) keyEqual(i int, key []uint64) bool {
	stored := t.keys[i*t.wpk : (i+1)*t.wpk]
	for j, w := range key {
		if stored[j] != w {
			return false
		}
	}
	return true
}

// tag returns the tag bits of hash h for the current slot array.
//
//mpp:hotpath
func (t *Table) tag(h uint64) uint32 { return uint32(h>>32) & t.tagMask }

// lookup probes for key, whose hash is h. It returns the key's index,
// or -1 and the free slot that ends the probe when the key is absent.
//
//mpp:hotpath
func (t *Table) lookup(key []uint64, h uint64) (idx int, slot uint64) {
	tag := t.tag(h)
	slot = h & t.mask
	for {
		e := t.slots[slot]
		if e < 0 {
			return -1, slot
		}
		if uint32(e)&t.tagMask == tag {
			if i := int(uint32(e) &^ t.tagMask); t.keyEqual(i, key) {
				return i, slot
			}
		}
		slot = (slot + 1) & t.mask
	}
}

// Find returns the index of key, or (-1, false) when absent. len(key)
// must equal WordsPerKey. Find never allocates.
//
//mpp:hotpath
func (t *Table) Find(key []uint64) (int, bool) {
	t.checkWidth(key)
	idx, _ := t.lookup(key, Hash(key))
	return idx, idx >= 0
}

// Insert returns the index of key, inserting it if absent. existed
// reports whether the key was already present. The key words are copied
// into the table's arena; the caller's slice is not retained. Inserting
// an already-present key never allocates.
//
//mpp:hotpath
func (t *Table) Insert(key []uint64) (idx int, existed bool) {
	t.checkWidth(key)
	h := Hash(key)
	idx, slot := t.lookup(key, h)
	if idx >= 0 {
		return idx, true
	}
	n := t.Len()
	if n >= t.limit {
		t.rehash(len(t.slots) * 2)
		// The target slot moved; re-probe in the fresh slot array.
		slot = t.freeSlot(h)
	}
	t.keys = append(t.keys, key...)
	t.slots[slot] = int32(t.tag(h) | uint32(n))
	return n, false
}

// freeSlot returns the first empty slot on the probe sequence of hash h.
func (t *Table) freeSlot(h uint64) uint64 {
	slot := h & t.mask
	for t.slots[slot] >= 0 {
		slot = (slot + 1) & t.mask
	}
	return slot
}

func (t *Table) rehash(newSize int) {
	t.initSlots(newSize)
	for i, n := 0, t.Len(); i < n; i++ {
		h := Hash(t.Key(i))
		t.slots[t.freeSlot(h)] = int32(t.tag(h) | uint32(i))
	}
}

// ArenaBytes reports the heap bytes retained by the table's key arena
// and slot array — capacities, not live lengths, since capacity is what
// a pooled table keeps pinned between uses. The solver pool's oversize
// guard (internal/opt) reads this to decide whether a recycled table is
// worth keeping.
func (t *Table) ArenaBytes() int64 {
	return int64(cap(t.keys))*8 + int64(len(t.slots))*4
}

// Reset drops every key while keeping the allocated capacity, so a table
// can be reused across searches without reallocating.
func (t *Table) Reset() {
	t.keys = t.keys[:0]
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// checkWidth panics when the key width disagrees with the table's — a
// programmer error caught at the boundary rather than corrupting the
// arena.
func (t *Table) checkWidth(key []uint64) {
	if len(key) != t.wpk {
		panic("hashtab: key width mismatch")
	}
}
