package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSet(rng *rand.Rand, n, space int32) Set {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = rng.Int31n(space)
	}
	return MustNewSet(idx)
}

// merge2 is the two-set union both ways it is computed: the pair merge
// into a pre-sized arena, and the tree union of the pair.
func merge2(t *testing.T, a, b Set) Set {
	t.Helper()
	u := mergeInto(make(Set, 0, len(a)+len(b)), a, b)
	if tu := TreeUnion([]Set{a, b}); !tu.Equal(u) {
		t.Fatalf("TreeUnion = %v, mergeInto = %v", tu.Indices(), u.Indices())
	}
	return u
}

func TestMergeIntoBasic(t *testing.T) {
	a := MustNewSet([]int32{1, 3, 5})
	b := MustNewSet([]int32{2, 3, 6})
	u := merge2(t, a, b)
	want := MustNewSet([]int32{1, 2, 3, 5, 6})
	if !u.Equal(want) {
		t.Fatalf("merge = %v, want %v", u.Indices(), want.Indices())
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a := MustNewSet([]int32{1, 2})
	if u := merge2(t, a, nil); !u.Equal(a) {
		t.Error("merge with empty right")
	}
	if u := merge2(t, nil, a); !u.Equal(a) {
		t.Error("merge with empty left")
	}
	if u := merge2(t, nil, nil); len(u) != 0 {
		t.Error("merge of empties")
	}
}

func TestTreeUnionMatchesHashUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		sets := make([]Set, k)
		for i := range sets {
			sets[i] = randomSet(rng, rng.Int31n(200), 300)
		}
		tu := TreeUnion(sets)
		hu := HashUnion(sets)
		if !tu.Equal(hu) {
			t.Fatalf("trial %d: tree union %d keys, hash union %d keys", trial, len(tu), len(hu))
		}
		if !tu.IsSorted() {
			t.Fatal("tree union not sorted")
		}
	}
}

func TestTreeUnionDoesNotAliasInputs(t *testing.T) {
	a := MustNewSet([]int32{1, 2, 3})
	u := TreeUnion([]Set{a})
	u[0] = MakeKey(42)
	if a.Contains(MakeKey(42)) {
		t.Fatal("TreeUnion of single set aliases its input")
	}
}

func TestPositionMap(t *testing.T) {
	union := MustNewSet([]int32{1, 2, 3, 4, 5})
	sub := MustNewSet([]int32{2, 4})
	m, err := PositionMap(sub, union)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range sub {
		if union[m[i]] != k {
			t.Errorf("map slot %d wrong", i)
		}
	}
}

func TestPositionMapMissing(t *testing.T) {
	union := MustNewSet([]int32{1, 3})
	sub := MustNewSet([]int32{1, 2})
	if _, err := PositionMap(sub, union); err == nil {
		t.Fatal("want error for missing key")
	}
}

func TestPartialPositionMap(t *testing.T) {
	union := MustNewSet([]int32{1, 3, 5})
	sub := MustNewSet([]int32{1, 2, 5, 7})
	m, missing := PartialPositionMap(sub, union)
	if missing != 2 {
		t.Fatalf("missing = %d, want 2", missing)
	}
	for i, k := range sub {
		if m[i] >= 0 && union[m[i]] != k {
			t.Errorf("slot %d maps to wrong key", i)
		}
		if m[i] < 0 && union.Contains(k) {
			t.Errorf("slot %d reported missing but present", i)
		}
	}
}

func TestUnionWithMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := make([]Set, 6)
	for i := range sets {
		sets[i] = randomSet(rng, 50, 100)
	}
	union, maps := UnionWithMaps(sets)
	for i, s := range sets {
		for j, k := range s {
			if union[maps[i][j]] != k {
				t.Fatalf("set %d slot %d mapped to wrong union slot", i, j)
			}
		}
	}
	// Union must be exactly the set of all keys.
	if !union.Equal(HashUnion(sets)) {
		t.Fatal("union differs from oracle")
	}
}

func TestHashUnionWithMaps(t *testing.T) {
	sets := []Set{MustNewSet([]int32{1, 2}), MustNewSet([]int32{2, 3})}
	union, maps := HashUnionWithMaps(sets)
	if len(union) != 3 {
		t.Fatalf("union size %d, want 3", len(union))
	}
	for i, s := range sets {
		for j, k := range s {
			if union[maps[i][j]] != k {
				t.Fatalf("hash maps wrong at set %d slot %d", i, j)
			}
		}
	}
}

// Property: union algebra — TreeUnion is idempotent, commutative (as a
// set), and every input is a subset of the union.
func TestTreeUnionProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		toSet := func(raw []uint16) Set {
			idx := make([]int32, len(raw))
			for i, r := range raw {
				idx[i] = int32(r)
			}
			return MustNewSet(idx)
		}
		a, b := toSet(xs), toSet(ys)
		u1 := TreeUnion([]Set{a, b})
		u2 := TreeUnion([]Set{b, a})
		if !u1.Equal(u2) {
			return false
		}
		if !a.Subset(u1) || !b.Subset(u1) {
			return false
		}
		return TreeUnion([]Set{u1, a}).Equal(u1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSplitOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSet(rng, 1000, 1<<30)
	r := FullRange()
	for _, d := range []int{1, 2, 4, 8} {
		off := SplitOffsets(s, r, d)
		if off[0] != 0 || off[d] != int32(len(s)) {
			t.Fatalf("d=%d offsets do not cover set", d)
		}
		for tt := 0; tt < d; tt++ {
			piece := Piece(s, off, tt)
			sub := r.Sub(d, tt)
			if err := CheckInRange(piece, sub); err != nil {
				t.Fatalf("d=%d piece %d: %v", d, tt, err)
			}
		}
	}
}

func TestSplitOffsetsBalance(t *testing.T) {
	// Hash partitioning should balance even adversarial (dense
	// consecutive) index distributions.
	idx := make([]int32, 1<<14)
	for i := range idx {
		idx[i] = int32(i)
	}
	s := MustNewSet(idx)
	off := SplitOffsets(s, FullRange(), 8)
	for tt := 0; tt < 8; tt++ {
		n := int(off[tt+1] - off[tt])
		if n < len(s)/8-len(s)/32 || n > len(s)/8+len(s)/32 {
			t.Fatalf("piece %d badly unbalanced: %d of %d", tt, n, len(s))
		}
	}
}

func TestCheckInRange(t *testing.T) {
	s := MustNewSet([]int32{1, 2, 3})
	if err := CheckInRange(s, FullRange()); err != nil {
		t.Fatal(err)
	}
	narrow := Range{s[1], s[2]}
	if err := CheckInRange(s, narrow); err == nil {
		t.Fatal("want range violation")
	}
	if err := CheckInRange(nil, narrow); err != nil {
		t.Fatal("empty set should fit any range")
	}
}
