package sparse

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMakeKeyRoundTrip(t *testing.T) {
	for _, idx := range []int32{0, 1, 7, 1 << 20, 1<<31 - 1} {
		k := MakeKey(idx)
		if k.Index() != idx {
			t.Errorf("MakeKey(%d).Index() = %d", idx, k.Index())
		}
		if k.Hash() != hash32(uint32(idx)) {
			t.Errorf("hash half mismatch for %d", idx)
		}
	}
}

func TestHash32Bijective(t *testing.T) {
	// Spot-check injectivity on a window; fmix32 is a bijection by
	// construction (xorshift and odd-multiply steps are invertible).
	seen := make(map[uint32]uint32)
	for i := uint32(0); i < 100000; i++ {
		h := hash32(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("hash32 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestKeyOrderFollowsHash(t *testing.T) {
	a, b := MakeKey(3), MakeKey(4)
	if (a < b) != (a.Hash() < b.Hash() || (a.Hash() == b.Hash() && a.Index() < b.Index())) {
		t.Error("key order does not follow (hash, index) order")
	}
}

func TestNewSetDedupAndPerm(t *testing.T) {
	in := []int32{5, 3, 5, 9, 3, 3}
	set, perm, err := NewSet(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("want 3 unique keys, got %d", len(set))
	}
	if !set.IsSorted() {
		t.Fatal("set not sorted")
	}
	for i, idx := range in {
		if set[perm[i]].Index() != idx {
			t.Errorf("perm[%d] points at index %d, want %d", i, set[perm[i]].Index(), idx)
		}
	}
}

func TestNewSetRejectsNegative(t *testing.T) {
	if _, _, err := NewSet([]int32{1, -2, 3}); err == nil {
		t.Fatal("want error for negative index")
	}
}

func TestNewSetEmpty(t *testing.T) {
	set, perm, err := NewSet(nil)
	if err != nil || len(set) != 0 || len(perm) != 0 {
		t.Fatalf("empty input: set=%v perm=%v err=%v", set, perm, err)
	}
}

// refNewSet is the sort.Slice implementation NewSet replaced, kept as
// the reference FuzzNewSet compares against.
func refNewSet(indices []int32) (Set, []int32, error) {
	type tagged struct {
		key Key
		pos int32
	}
	tmp := make([]tagged, len(indices))
	for i, idx := range indices {
		if idx < 0 {
			return nil, nil, fmt.Errorf("sparse: negative feature index %d at position %d", idx, i)
		}
		tmp[i] = tagged{MakeKey(idx), int32(i)}
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a].key < tmp[b].key })
	set, perm := Set{}, make([]int32, len(indices))
	for _, e := range tmp {
		if len(set) == 0 || set[len(set)-1] != e.key {
			set = append(set, e.key)
		}
		perm[e.pos] = int32(len(set) - 1)
	}
	return set, perm, nil
}

// FuzzNewSet checks NewSet against the reference on arbitrary index
// lists: same set, same perm, same error (negative indices rejected at
// the same position). Four bytes make one index; the second argument
// picks the pre-arrangement, so the skip-the-sort path (input already in
// key order, with and without adjacent duplicates), duplicate-heavy
// input and indices crafted to share their top hash bits (one overfull
// bucket for the distribution sort) are fuzzed as hard as the general
// case. The seeds straddle the sort's comparison-sort floor.
func FuzzNewSet(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 9}, uint8(0))
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 9}, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0x80, 0, 0, 2, 0, 0, 0, 3}, uint8(2))
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint8(1))
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{comparisonSortBelow - 1, comparisonSortBelow, comparisonSortBelow + 1, 4 * comparisonSortBelow} {
		raw := make([]byte, 4*n)
		rng.Read(raw)
		for i := 0; i < len(raw); i += 4 {
			raw[i] &= 0x7F
		}
		for arrange := uint8(0); arrange < 4; arrange++ {
			f.Add(raw, arrange)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, arrange uint8) {
		idx := make([]int32, 0, len(raw)/4)
		for i := 0; i+3 < len(raw); i += 4 {
			idx = append(idx, int32(binary.BigEndian.Uint32(raw[i:])))
		}
		switch arrange % 4 {
		case 1: // key order, duplicates adjacent
			sort.Slice(idx, func(a, b int) bool {
				return hash32(uint32(idx[a])) < hash32(uint32(idx[b]))
			})
		case 2: // low range: many duplicates
			for i := range idx {
				if idx[i] >= 0 {
					idx[i] %= 8
				}
			}
		case 3: // one narrow hash band between two far-apart anchors
			for i := range idx {
				if i > 1 && idx[i] >= 0 {
					idx[i] = indexWithHash(0x5A5A0000 | uint32(idx[i])&0xFFF)
				}
			}
		}
		wantSet, wantPerm, wantErr := refNewSet(idx)
		set, perm, err := NewSet(idx)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if !slices.Equal(set, wantSet) {
			t.Fatalf("set %v, reference %v (input %v)", set, wantSet, idx)
		}
		if !slices.Equal(perm, wantPerm) {
			t.Fatalf("perm %v, reference %v (input %v)", perm, wantPerm, idx)
		}
	})
}

func TestSetContainsPosition(t *testing.T) {
	set := MustNewSet([]int32{10, 20, 30, 40})
	for _, idx := range []int32{10, 20, 30, 40} {
		k := MakeKey(idx)
		if !set.Contains(k) {
			t.Errorf("Contains(%d) = false", idx)
		}
		p, ok := set.Position(k)
		if !ok || set[p] != k {
			t.Errorf("Position(%d) = %d,%v", idx, p, ok)
		}
	}
	if set.Contains(MakeKey(11)) {
		t.Error("Contains(11) = true")
	}
	if _, ok := set.Position(MakeKey(11)); ok {
		t.Error("Position(11) found")
	}
}

func TestSubset(t *testing.T) {
	a := MustNewSet([]int32{1, 3, 5})
	b := MustNewSet([]int32{0, 1, 2, 3, 4, 5})
	if !a.Subset(b) {
		t.Error("a should be subset of b")
	}
	if b.Subset(a) {
		t.Error("b should not be subset of a")
	}
	if !Set(nil).Subset(a) {
		t.Error("empty set is a subset of anything")
	}
}

func TestSetEqualClone(t *testing.T) {
	a := MustNewSet([]int32{1, 2, 3})
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not equal")
	}
	c[0] = MakeKey(99)
	if a.Equal(c) {
		t.Error("mutating clone affected original comparison")
	}
	if a.Equal(a[:2]) {
		t.Error("prefix compared equal")
	}
}

// Property: NewSet output is always sorted, deduplicated, and the
// permutation always points each input at its own key.
func TestNewSetProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]int32, len(raw))
		for i, r := range raw {
			in[i] = int32(r)
		}
		set, perm, err := NewSet(in)
		if err != nil {
			return false
		}
		if !set.IsSorted() {
			return false
		}
		for i, idx := range in {
			if set[perm[i]].Index() != idx {
				return false
			}
		}
		uniq := make(map[int32]bool)
		for _, idx := range in {
			uniq[idx] = true
		}
		return len(set) == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeSubCoversAndNests(t *testing.T) {
	r := FullRange()
	for _, d := range []int{1, 2, 3, 7, 64} {
		var prev Key
		for tt := 0; tt < d; tt++ {
			sub := r.Sub(d, tt)
			if tt == 0 && sub.Lo != r.Lo {
				t.Errorf("d=%d first sub does not start at range lo", d)
			}
			if tt > 0 && sub.Lo != prev {
				t.Errorf("d=%d sub %d not contiguous", d, tt)
			}
			if sub.Lo >= sub.Hi {
				t.Errorf("d=%d sub %d empty or inverted", d, tt)
			}
			prev = sub.Hi
		}
		if prev != r.Hi {
			t.Errorf("d=%d subs do not cover range", d)
		}
	}
}

func TestRangeSubPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-bounds Sub")
		}
	}()
	FullRange().Sub(4, 4)
}

// Property: every key lands in exactly one sub-range.
func TestRangeSubPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := FullRange()
	for trial := 0; trial < 500; trial++ {
		k := MakeKey(rng.Int31())
		d := 1 + rng.Intn(16)
		count := 0
		for tt := 0; tt < d; tt++ {
			if r.Sub(d, tt).Contains(k) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("key %x in %d sub-ranges of %d", uint64(k), count, d)
		}
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	in := []int32{8, 1, 99, 4}
	set := MustNewSet(in)
	got := set.Indices()
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	want := []int32{1, 4, 8, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices() = %v, want %v", got, want)
		}
	}
}

func TestLowerBound(t *testing.T) {
	set := MustNewSet([]int32{10, 20, 30})
	if lb := set.LowerBound(set[0]); lb != 0 {
		t.Errorf("LowerBound(first) = %d", lb)
	}
	if lb := set.LowerBound(set[2] + 1); lb != 3 {
		t.Errorf("LowerBound(past-end) = %d", lb)
	}
}
