package sparse

import (
	"fmt"
	"sort"
)

// Set is a deduplicated slice of Keys in ascending order. The zero value
// is an empty, usable Set.
type Set []Key

// NewSet builds a Set from raw feature indices. Duplicate indices are
// collapsed. The second return value maps each input position to the
// position of its key in the resulting Set, so callers can translate
// between their original index order and the protocol's sorted order.
//
// hash32 is a bijection, so the hash half of a Key alone orders and
// dedups: the sort runs on packed hash32<<32 | position words (the
// distribution sort of sort.go, from pooled scratch into the result),
// and the index half is filled in afterwards, in place, turning the
// sorted words into the Set itself. Input already ascending in key
// order — every set that has been through the protocol once — skips the
// sort.
func NewSet(indices []int32) (Set, []int32, error) {
	set := make(Set, len(indices))
	ascending := true
	for i, idx := range indices {
		if idx < 0 {
			return nil, nil, fmt.Errorf("sparse: negative feature index %d at position %d", idx, i)
		}
		set[i] = Key(uint64(hash32(uint32(idx)))<<32 | uint64(i))
		if i > 0 && set[i] < set[i-1] {
			ascending = false
		}
	}
	if !ascending {
		sb := sortPool.Get().(*sortBuf)
		sb.keys = grow(sb.keys, len(set))
		copy(sb.keys, set)
		sortKeysInto(set, sb.keys, sb)
		sortPool.Put(sb)
	}

	perm := make([]int32, len(indices))
	n := 0
	for _, packed := range set {
		pos := uint32(packed)
		if n == 0 || set[n-1].Hash() != packed.Hash() {
			// n never passes the read cursor, so the word being replaced
			// has already been consumed.
			set[n] = Key(uint64(packed.Hash())<<32 | uint64(uint32(indices[pos])))
			n++
		}
		perm[pos] = int32(n - 1)
	}
	return set[:n], perm, nil
}

// MustNewSet is NewSet for inputs known to be valid; it panics on error.
// It is intended for tests and examples.
func MustNewSet(indices []int32) Set {
	s, _, err := NewSet(indices)
	if err != nil {
		panic(err)
	}
	return s
}

// Indices returns the feature indices of the Set in key order.
func (s Set) Indices() []int32 {
	out := make([]int32, len(s))
	for i, k := range s {
		out[i] = k.Index()
	}
	return out
}

// IsSorted reports whether s is strictly ascending (sorted and
// duplicate-free), the invariant all Sets must maintain.
func (s Set) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Contains reports whether key k is present, by binary search.
func (s Set) Contains(k Key) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= k })
	return i < len(s) && s[i] == k
}

// Position returns the slot of key k in s and whether it is present.
func (s Set) Position(k Key) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= k })
	if i < len(s) && s[i] == k {
		return i, true
	}
	return -1, false
}

// LowerBound returns the first slot whose key is >= k.
func (s Set) LowerBound(k Key) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= k })
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two Sets hold exactly the same keys. Aliasing
// slices short-circuit without a scan — the incremental reconfiguration
// path compares layer inputs that are often literally the previous
// union, so the pointer test turns a linear pass into O(1).
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	if len(s) == 0 || &s[0] == &t[0] {
		return true
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Subset reports whether every key of s is present in t. Both must be
// sorted; the check is a linear merge-join.
func (s Set) Subset(t Set) bool {
	j := 0
	for _, k := range s {
		for j < len(t) && t[j] < k {
			j++
		}
		if j >= len(t) || t[j] != k {
			return false
		}
	}
	return true
}
