package sparse

import (
	"fmt"
	"slices"
)

// mergeInto appends the sorted union of a and b to out, which must have
// capacity for len(a)+len(b) more elements (all callers pre-size their
// arenas, so the loop writes by index instead of appending). Empty
// inputs reduce to a single bulk copy.
//
// On hashed keys which side holds the smaller head is a coin flip, so
// the loop body has no branch for it to decide: the smaller head is
// always written, and each cursor advances by the outcome of its own
// comparison (both on a tie, which is what deduplicates). Per output
// key that is a load→compare→advance dependency chain of a few cycles
// in place of a branch mispredicted every other key.
//
//kylix:hotpath
func mergeInto(out Set, a, b Set) Set {
	if len(a) == 0 {
		//kylix:allow hotpathalloc:append -- callers pre-size out; never reallocates
		return append(out, b...)
	}
	if len(b) == 0 {
		//kylix:allow hotpathalloc:append -- callers pre-size out; never reallocates
		return append(out, a...)
	}
	n := len(out)
	out = out[:n+len(a)+len(b)]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i], b[j]
		out[n] = min(ka, kb)
		n++
		i += b2i(ka <= kb)
		j += b2i(kb <= ka)
	}
	n += copy(out[n:], a[i:])
	n += copy(out[n:], b[j:])
	return out[:n]
}

// b2i is 1 for true and 0 for false; the compiler emits a flag
// materialisation (SETcc), not a branch.
func b2i(c bool) int {
	var v int
	if c {
		v = 1
	}
	return v
}

// TreeUnion computes the union of many Sets by recursively merging
// siblings in a balanced binary tree (Kylix §VI-A). Pairwise merging
// keeps both operands of every merge approximately equal in length,
// which is what makes merge-based unions beat hash tables: the cost of
// a merge is the length of the longer sequence.
//
// Intermediate merge results live in two ping-pong scratch arenas (each
// round's outputs are carved from the arena not holding its inputs), so
// a union of n sets costs two arena allocations instead of one fresh
// slice per pairwise merge.
func TreeUnion(sets []Set) Set {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0].Clone()
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total == 0 {
		return Set{}
	}
	arenas := [2]Set{make(Set, 0, total), make(Set, 0, total)}
	gen := 0
	// Bottom-up rounds: merge neighbours until one set remains. Each
	// round halves the count, so inputs of similar size meet inputs of
	// similar size.
	cur := slices.Clone(sets)
	for len(cur) > 1 {
		free := arenas[gen][:0]
		gen = 1 - gen
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			merged := mergeInto(free, cur[i], cur[i+1])
			free = merged[len(merged):]
			next = append(next, merged)
		}
		if len(cur)%2 == 1 {
			// Copy the odd leftover into this round's arena as well, so
			// every round reads exclusively from the previous generation
			// and writes exclusively into the current one — a leftover is
			// never read from an arena while it is being overwritten.
			moved := append(free, cur[len(cur)-1]...)
			free = moved[len(moved):]
			next = append(next, moved)
		}
		cur = next
	}
	// The result is a prefix of one arena; clone it when it pins far more
	// backing memory than it uses (callers keep unions alive long-term).
	if len(cur[0])*2 < total {
		return cur[0].Clone()
	}
	return cur[0]
}

// UnionScratch is a reusable arena for repeated tree unions. It holds
// the two ping-pong merge arenas and the work list that TreeUnion
// allocates per call, plus the per-pair-merge position maps (into the
// pair's union) and the input-range boundary of each tree node, all
// grown to the largest union seen and then reused. The zero value is
// ready to use.
type UnionScratch struct {
	arenas   [2]Set
	work     []Set
	pairMaps []int32
	spanHi   []int32
}

// Poison fills the scratch to capacity with all-ones keys and -1
// positions, so a caller that hands one scratch from call to call can
// prove that no call reads what another left.
func (u *UnionScratch) Poison() {
	Scribble(u.arenas[0], ^Key(0))
	Scribble(u.arenas[1], ^Key(0))
	Scribble(u.pairMaps, -1)
}

// Scribble sets every element of s up to its capacity to v: the poison
// hooks' fill, which leaves nothing stale past the length either.
func Scribble[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// UnionMaps computes the union of sets and, in the same single pass,
// the position map of every input into the union: maps[t][i] becomes
// the union position of sets[t][i]. maps[t] must have len(sets[t])
// entries. The result aliases a scratch arena (or, for a single input,
// that input) and is valid only until the next UnionMaps call on the
// same scratch; callers that retain it must Clone — which is what the
// configuration pass does, cloning only the final deduplicated union
// instead of paying per-merge allocations.
//
// The merge is the same balanced pairwise tree as TreeUnion, with each
// pair merge also emitting position maps into the pair union; after a
// merge, the maps of every original input under either side are
// composed with the pair map in place. Every level costs one
// cache-friendly two-pointer merge plus one sequential composition pass
// over the T map entries, so the whole job is O(T log d) with no
// data-dependent branch (see mergeInto) — measurably faster here than a
// d-way tournament (loser tree), whose per-element root-to-leaf replay
// branch-misses on random keys.
func (u *UnionScratch) UnionMaps(sets []Set, maps [][]int32) Set {
	k := len(sets)
	switch k {
	case 0:
		return nil
	case 1:
		m := maps[0]
		for i := range m {
			m[i] = int32(i)
		}
		return sets[0]
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	u.arenas[0] = grow(u.arenas[0], total)
	if k == 2 {
		// Binary groups are common enough (every degree-2 layer) to
		// deserve the no-composition direct path.
		return mergeMaps2Into(u.arenas[0][:0], sets[0], sets[1], maps[0], maps[1])
	}
	u.arenas[1], u.pairMaps = grow(u.arenas[1], total), grow(u.pairMaps, total)
	u.work, u.spanHi = grow(u.work, k), grow(u.spanHi, k)

	// Level 0 merges the original inputs pairwise, writing their maps
	// directly (composition with an identity map is a copy, so skip it).
	// spanHi[j] tracks which original inputs tree node j covers: node j
	// spans inputs [spanHi[j-1], spanHi[j]).
	cur := u.work[:0]
	spanHi := u.spanHi[:0]
	free := u.arenas[0][:0]
	for i := 0; i+1 < k; i += 2 {
		merged := mergeMaps2Into(free, sets[i], sets[i+1], maps[i], maps[i+1])
		free = merged[len(merged):]
		cur = append(cur, merged)
		spanHi = append(spanHi, int32(i+2))
	}
	if k%2 == 1 {
		// The odd leftover is carried as-is; its map must still be the
		// identity for later composition levels to index.
		m := maps[k-1]
		for i := range m {
			m[i] = int32(i)
		}
		moved := append(free, sets[k-1]...)
		cur = append(cur, moved)
		spanHi = append(spanHi, int32(k))
	}

	// Upper levels: merge neighbouring nodes into the other arena and
	// fold the pair maps into every covered input's map. Map values are
	// node-relative positions throughout, so the final level leaves
	// absolute union positions.
	gen := 1
	for len(cur) > 1 {
		free := u.arenas[gen][:0]
		gen = 1 - gen
		next := cur[:0]
		nextHi := spanHi[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			a, b := cur[i], cur[i+1]
			pa := u.pairMaps[:len(a)]
			pb := u.pairMaps[len(a) : len(a)+len(b)]
			merged := mergeMaps2Into(free, a, b, pa, pb)
			free = merged[len(merged):]
			lo := int32(0)
			if i > 0 {
				lo = spanHi[i-1]
			}
			for t := lo; t < spanHi[i]; t++ {
				m := maps[t]
				for x := range m {
					m[x] = pa[m[x]]
				}
			}
			for t := spanHi[i]; t < spanHi[i+1]; t++ {
				m := maps[t]
				for x := range m {
					m[x] = pb[m[x]]
				}
			}
			next = append(next, merged)
			nextHi = append(nextHi, spanHi[i+1])
		}
		if len(cur)%2 == 1 {
			// Carry the odd leftover into this level's arena (ping-pong
			// discipline, see TreeUnion); its maps stay valid as-is.
			moved := append(free, cur[len(cur)-1]...)
			free = moved[len(moved):]
			next = append(next, moved)
			nextHi = append(nextHi, spanHi[len(spanHi)-1])
		}
		cur = next
		spanHi = nextHi
	}
	return cur[0]
}

// mergeMaps2Into appends the sorted union of a and b to out (which must
// have capacity, like mergeInto) and records each input's position map
// relative to the appended union: ma[i]/mb[j] get the union-local
// positions of a[i]/b[j]. The loop is mergeInto's branch-free one: both
// heads' map slots are written every step, and the slot of the head
// that did not advance is simply written again, correctly, on the step
// that does consume it.
//
//kylix:hotpath
func mergeMaps2Into(out Set, a, b Set, ma, mb []int32) Set {
	base := len(out)
	out = out[:base+len(a)+len(b)]
	dst := out[base:]
	ma, mb = ma[:len(a)], mb[:len(b)]
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i], b[j]
		dst[n] = min(ka, kb)
		ma[i], mb[j] = int32(n), int32(n)
		n++
		i += b2i(ka <= kb)
		j += b2i(kb <= ka)
	}
	for ; i < len(a); i++ {
		dst[n] = a[i]
		ma[i] = int32(n)
		n++
	}
	for ; j < len(b); j++ {
		dst[n] = b[j]
		mb[j] = int32(n)
		n++
	}
	return out[:base+n]
}

// PositionMap returns, for each key of sub, its position in union. Both
// Sets must be sorted. These are the f and g maps of Kylix §III-A: they
// let the reduction pass add incoming values into the union accumulator,
// and the allgather pass extract outgoing values, in constant time per
// element. An error is returned if sub contains a key missing from union.
func PositionMap(sub, union Set) ([]int32, error) {
	m, missing := PartialPositionMap(sub, union)
	if missing > 0 {
		k := sub[slices.Index(m, -1)]
		return nil, fmt.Errorf("sparse: key %d (index %d) not present in union", uint64(k), k.Index())
	}
	return m, nil
}

// PartialPositionMap is PositionMap for the case where sub may contain
// keys absent from union; absent keys map to -1. The second return value
// counts the missing keys.
func PartialPositionMap(sub, union Set) ([]int32, int) {
	m := make([]int32, len(sub))
	missing := 0
	j := 0
	for i, k := range sub {
		for j < len(union) && union[j] < k {
			j++
		}
		if j < len(union) && union[j] == k {
			m[i] = int32(j)
		} else {
			m[i] = -1
			missing++
		}
	}
	return m, missing
}

// UnionWithMaps computes the tree union of the inputs and a position map
// from each input into the union. This is the workhorse of the Kylix
// configuration pass: a node unions the index sets received from its
// layer neighbours and keeps one map per neighbour for later reduction.
func UnionWithMaps(sets []Set) (Set, [][]int32) {
	union := TreeUnion(sets)
	maps := make([][]int32, len(sets))
	for i, s := range sets {
		m, err := PositionMap(s, union)
		if err != nil {
			// Impossible: union contains every input by construction.
			panic("sparse: UnionWithMaps lost a key: " + err.Error())
		}
		maps[i] = m
	}
	return union, maps
}

// Diff is the one merge that spells next against prev: it writes the
// positions in prev of the keys next lacks to removed and the keys of
// next that prev lacks to added, both in order (room for len(prev) and
// len(next)), and returns how many of each. Unlike mergeInto's, the loop
// branches on equal heads: it serves sets that mostly agree, where that
// branch is well predicted.
//
//kylix:hotpath
func Diff(prev, next Set, removed []int32, added Set) (nr, na int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch a, b := prev[i], next[j]; {
		case a == b:
			i, j = i+1, j+1
		case a < b:
			removed[nr], nr, i = int32(i), nr+1, i+1
		default:
			added[na], na, j = b, na+1, j+1
		}
	}
	for ; i < len(prev); i++ {
		removed[nr], nr = int32(i), nr+1
	}
	return nr, na + copy(added[na:], next[j:])
}
