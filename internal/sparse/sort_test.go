package sparse

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// unhash32 inverts hash32 (each fmix32 step is invertible: the odd
// multipliers by their inverses mod 2^32, the xorshifts by re-applying
// the shift until it runs out of bits).
func unhash32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7ed1b41d
	h ^= h>>13 ^ h>>26
	h *= 0xa5cb9243
	h ^= h >> 16
	return h
}

func TestUnhash32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		if x := rng.Uint32(); unhash32(hash32(x)) != x || hash32(unhash32(x)) != x {
			t.Fatalf("unhash32 does not invert hash32 at %#x", x)
		}
	}
}

// indexWithHash returns a valid (non-negative) feature index whose hash
// is h or the nearest hash above it that has one.
func indexWithHash(h uint32) int32 {
	for ; ; h++ {
		if x := unhash32(h); x < 1<<31 {
			return int32(x)
		}
	}
}

// sortSizes straddle every cutoff of the sort kernels: the comparison
// sort floor, and the input sizes at which sortIndices widens its digit
// (2^9 .. 2^12) or needs another pass.
var sortSizes = []int{
	0, 1, 2, comparisonSortBelow - 1, comparisonSortBelow, comparisonSortBelow + 1,
	255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097, 10000,
}

// sortArrangements are the index lists the kernels are checked on,
// each a function of the size wanted.
var sortArrangements = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int32
}{
	{"random", func(rng *rand.Rand, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = rng.Int31()
		}
		return idx
	}},
	{"small indices", func(rng *rand.Rand, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = rng.Int31n(300)
		}
		return idx
	}},
	{"duplicates", func(rng *rand.Rand, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = rng.Int31n(int32(n/8 + 1))
		}
		return idx
	}},
	{"ascending", func(rng *rand.Rand, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = rng.Int31()
		}
		slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(MakeKey(a), MakeKey(b)) })
		return idx
	}},
	// Two anchors at the ends of the hash space and everything else in
	// one narrow hash band: the keys share their top hash bits, and the
	// distribution sort sees a single overfull bucket.
	{"crafted band", func(rng *rand.Rand, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = indexWithHash(0x5A5A0000 + uint32(rng.Intn(1<<16)))
		}
		if n > 1 {
			idx[rng.Intn(n)] = indexWithHash(0)
			idx[rng.Intn(n)] = indexWithHash(0xFFFFFF00)
		}
		return idx
	}},
}

func TestSortKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sb sortBuf
	for _, arr := range sortArrangements {
		for _, n := range sortSizes {
			idx := arr.gen(rng, n)
			name := fmt.Sprintf("%s/%d", arr.name, n)

			keys := make([]Key, n)
			for i, x := range idx {
				keys[i] = MakeKey(x)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := make([]Key, n)
			sortKeysInto(got, keys, &sb)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: sortKeysInto differs from slices.Sort", name)
			}

			or := uint32(0)
			for _, x := range idx {
				or |= uint32(x)
			}
			wantIdx := slices.Clone(idx)
			slices.Sort(wantIdx)
			if gotIdx := sortIndices(slices.Clone(idx), make([]int32, n), or, &sb); !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("%s: sortIndices differs from slices.Sort", name)
			}

			wantSet, wantPerm, _ := refNewSet(idx)
			set, perm, err := NewSet(idx)
			if err != nil || !slices.Equal(set, wantSet) || !slices.Equal(PermOrIdentity(perm, n), wantPerm) {
				t.Fatalf("%s: NewSet differs from the reference (err %v)", name, err)
			}
			// wantSet owes nothing to the kernels under test, so the round
			// trip checks the encoder's index sort and the decoder's key
			// sort against it.
			codecRoundTrip(t, wantSet)
		}
	}
}

// TestSortKeysFallbackCount pins the overfull-bucket policy by count: a
// bucket of bucketInsertionMax keys is left to the insertion finish,
// one key more takes the comparison-sort fall-back, and each overfull
// bucket is one fall-back however many keys it holds.
func TestSortKeysFallbackCount(t *testing.T) {
	// With anchors at both ends of the hash space a key's bucket is
	// hash*nb>>32 for nb buckets; a cluster starts in the middle of its
	// bucket.
	cluster := func(keys []Key, n, bucket, size int) []Key {
		h := (uint64(bucket)<<32 + 1<<31) / uint64(bucketsPerKey*n)
		for i := 0; i < size; i++ {
			keys = append(keys, Key((h+uint64(i))<<32))
		}
		return keys
	}
	for _, tc := range []struct {
		sizes []int
		want  int
	}{
		{[]int{bucketInsertionMax, bucketInsertionMax, bucketInsertionMax}, 0},
		{[]int{bucketInsertionMax + 1, bucketInsertionMax, 2}, 1},
		{[]int{bucketInsertionMax + 1, 100, bucketInsertionMax}, 2},
		{[]int{200, bucketInsertionMax + 1, 60}, 3},
	} {
		n := 2
		for _, sz := range tc.sizes {
			n += sz
		}
		keys := []Key{0, Key(0xFFFFFFFF) << 32}
		for c, sz := range tc.sizes {
			keys = cluster(keys, n, (c+1)*n/4, sz)
		}
		rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		got := make([]Key, n)
		var sb sortBuf
		if fb := sortKeysInto(got, keys, &sb); fb != tc.want {
			t.Errorf("clusters %v: %d fall-backs, want %d", tc.sizes, fb, tc.want)
		}
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			t.Errorf("clusters %v: not sorted", tc.sizes)
		}
	}
}
