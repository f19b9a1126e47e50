package hashtab

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTableMatchesRefRandomOps drives a Table and the map-backed Ref
// oracle with the same random operation sequence and requires identical
// answers throughout — the same oracle pattern the bitset package uses.
func TestTableMatchesRefRandomOps(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wpk := 1 + rng.Intn(4)
		tab := New(wpk, rng.Intn(8))
		ref := NewRef(wpk)
		// A small key universe forces plenty of duplicate inserts.
		universe := make([][]uint64, 40)
		for i := range universe {
			k := make([]uint64, wpk)
			for j := range k {
				k[j] = rng.Uint64() >> uint(rng.Intn(64)) // mixed sparsity
			}
			universe[i] = k
		}
		for op := 0; op < 400; op++ {
			key := universe[rng.Intn(len(universe))]
			if rng.Intn(3) == 0 {
				ti, tok := tab.Find(key)
				ri, rok := ref.Find(key)
				if ti != ri || tok != rok {
					t.Logf("seed %d: Find mismatch: table (%d,%v) ref (%d,%v)", seed, ti, tok, ri, rok)
					return false
				}
			} else {
				ti, te := tab.Insert(key)
				ri, re := ref.Insert(key)
				if ti != ri || te != re {
					t.Logf("seed %d: Insert mismatch: table (%d,%v) ref (%d,%v)", seed, ti, te, ri, re)
					return false
				}
			}
			if tab.Len() != ref.Len() {
				t.Logf("seed %d: Len mismatch %d vs %d", seed, tab.Len(), ref.Len())
				return false
			}
		}
		// Every stored key readable back, identically.
		for i := 0; i < tab.Len(); i++ {
			tk, rk := tab.Key(i), ref.Key(i)
			for j := range tk {
				if tk[j] != rk[j] {
					t.Logf("seed %d: Key(%d) word %d mismatch", seed, i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTableGrowthAcrossResizes inserts far past the initial capacity so
// several rehashes happen, then verifies every key is still findable at
// its original index and re-insertion reports existence.
func TestTableGrowthAcrossResizes(t *testing.T) {
	const n = 10_000
	tab := New(2, 0) // minimal initial size: forces ~10 rehash rounds
	rng := rand.New(rand.NewSource(7))
	keys := make([][]uint64, n)
	for i := range keys {
		keys[i] = []uint64{rng.Uint64(), uint64(i)}
		idx, existed := tab.Insert(keys[i])
		if existed || idx != i {
			t.Fatalf("insert %d: got (%d, %v)", i, idx, existed)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i, k := range keys {
		idx, ok := tab.Find(k)
		if !ok || idx != i {
			t.Fatalf("post-growth Find %d: got (%d, %v)", i, idx, ok)
		}
		idx, existed := tab.Insert(k)
		if !existed || idx != i {
			t.Fatalf("post-growth re-Insert %d: got (%d, %v)", i, idx, existed)
		}
	}
}

// TestTableKeyArenaDoubles: the key arena grows to exactly twice its
// capacity, and to at least 16 keys, so a long search copies it
// O(log n) times, where append's ~1.25× steps for large slices copy it
// several times more.
func TestTableKeyArenaDoubles(t *testing.T) {
	for _, hint := range []int{0, 5, 1024} {
		tab := New(3, hint)
		grows := 0
		for i := 0; i < 100_000; i++ {
			before := cap(tab.keys)
			tab.Insert([]uint64{uint64(i), 1, 2})
			if c := cap(tab.keys); c != before {
				if want := max(2*before, 16*3); c != want {
					t.Fatalf("hint %d, key %d: arena grew from %d to %d words, want %d", hint, i, before, c, want)
				}
				grows++
			}
		}
		if tab.Len() != 100_000 || grows > 15 {
			t.Errorf("hint %d: %d keys after %d grows", hint, tab.Len(), grows)
		}
	}
}

// TestTableAdversarialLowEntropyKeys uses keys that differ only in high
// bits and only in one word — the worst case for a plain FNV slot index —
// and checks correctness survives the clustering.
func TestTableAdversarialLowEntropyKeys(t *testing.T) {
	tab := New(3, 4)
	ref := NewRef(3)
	for i := 0; i < 2000; i++ {
		key := []uint64{0, uint64(i) << 52, 0}
		ti, te := tab.Insert(key)
		ri, re := ref.Insert(key)
		if ti != ri || te != re {
			t.Fatalf("i=%d: table (%d,%v) ref (%d,%v)", i, ti, te, ri, re)
		}
	}
	for i := 0; i < 2000; i++ {
		key := []uint64{0, uint64(i) << 52, 0}
		if idx, ok := tab.Find(key); !ok || idx != i {
			t.Fatalf("find %d: got (%d,%v)", i, idx, ok)
		}
	}
}

func TestTableReset(t *testing.T) {
	tab := New(1, 8)
	for i := 0; i < 100; i++ {
		tab.Insert([]uint64{uint64(i)})
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if _, ok := tab.Find([]uint64{5}); ok {
		t.Fatal("key survived Reset")
	}
	idx, existed := tab.Insert([]uint64{5})
	if existed || idx != 0 {
		t.Fatalf("first insert after Reset: (%d, %v)", idx, existed)
	}
}

func TestTableZeroAllocOnHit(t *testing.T) {
	tab := New(2, 16)
	key := []uint64{3, 9}
	tab.Insert(key)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := tab.Find(key); !ok {
			t.Fatal("lost key")
		}
		if _, existed := tab.Insert(key); !existed {
			t.Fatal("duplicate insert not detected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Find/Insert on present key allocated %v times per run", allocs)
	}
}

func TestHashDistinguishesWordOrder(t *testing.T) {
	a := Hash([]uint64{1, 2})
	b := Hash([]uint64{2, 1})
	if a == b {
		t.Fatal("hash ignores word order")
	}
	if Hash([]uint64{1, 2}) != a {
		t.Fatal("hash not deterministic")
	}
}

func TestTablePanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on key width mismatch")
		}
	}()
	New(2, 0).Insert([]uint64{1})
}

// TestTableTagCollisions covers the case the random-ops test almost
// never reaches: two distinct keys whose slots carry equal tags. A
// birthday search over Hash finds two keys with the same home slot and
// the same tag in a 16-slot table, so the second key's probe meets the
// first key's slot with a matching tag and only the key arena can tell
// them apart. Insert and Find must keep them apart, in agreement with
// Ref, before and after the table rehashes.
func TestTableTagCollisions(t *testing.T) {
	const wpk = 2
	tab := New(wpk, 0)
	if len(tab.slots) != 16 {
		t.Fatalf("New(%d, 0) has %d slots, want 16", wpk, len(tab.slots))
	}
	// A slot's tag and home position together: 27 tag bits above the 4
	// index bits, plus the 4 position bits.
	sig := func(key []uint64) uint64 {
		h := Hash(key)
		return uint64(tab.tag(h))<<4 | h&tab.mask
	}
	seen := make(map[uint64]uint64)
	var a, b []uint64
	for i := uint64(0); a == nil; i++ {
		key := []uint64{i, 0x5eed}
		s := sig(key)
		if j, ok := seen[s]; ok {
			a, b = []uint64{j, 0x5eed}, key
		}
		seen[s] = i
	}
	ha, hb := Hash(a), Hash(b)
	if ha == hb || tab.tag(ha) != tab.tag(hb) || ha&tab.mask != hb&tab.mask {
		t.Fatalf("birthday search returned keys %v, %v without a tag collision", a, b)
	}

	ref := NewRef(wpk)
	check := func(stage string) {
		t.Helper()
		for _, key := range [][]uint64{a, b} {
			ti, tok := tab.Find(key)
			ri, rok := ref.Find(key)
			if ti != ri || tok != rok {
				t.Fatalf("%s: Find(%v) = (%d,%v), Ref says (%d,%v)", stage, key, ti, tok, ri, rok)
			}
			ti, te := tab.Insert(key)
			ri, re := ref.Insert(key)
			if ti != ri || te != re {
				t.Fatalf("%s: Insert(%v) = (%d,%v), Ref says (%d,%v)", stage, key, ti, te, ri, re)
			}
		}
	}
	check("empty table")
	// Fill past the 12-key growth limit: the table rehashes to 32 and
	// 64 slots, where the two keys' tags are recomputed with fewer bits.
	for i := uint64(0); i < 40; i++ {
		key := []uint64{i, 0xf111}
		ti, te := tab.Insert(key)
		ri, re := ref.Insert(key)
		if ti != ri || te != re {
			t.Fatalf("filler Insert(%v) = (%d,%v), Ref says (%d,%v)", key, ti, te, ri, re)
		}
	}
	if len(tab.slots) <= 16 {
		t.Fatalf("table did not rehash: %d slots", len(tab.slots))
	}
	check("after rehash")
	if ia, _ := tab.Find(a); ia != 0 {
		t.Fatalf("first colliding key at index %d, want 0", ia)
	}
	if ib, _ := tab.Find(b); ib != 1 {
		t.Fatalf("second colliding key at index %d, want 1", ib)
	}
}
