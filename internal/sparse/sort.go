package sparse

import (
	"math/bits"
	"slices"
	"sync"
)

// Sort kernels of the configuration path. A Key is hash32(index)<<32 |
// index with hash32 a bijection, so the keys of an honest set are
// uniform over the hash range the set spans: one counting pass on the
// scaled hash drops every key within a few slots of its final position
// and a short in-bucket finish completes the order — no comparison
// sort, whose every branch is a coin flip on hashed keys. Feature
// indices themselves are anything but uniform (power-law, dense runs),
// so the index codec's projection is sorted by LSD radix passes instead,
// which cost the same on any distribution.

// sortBuf is the pooled scratch of the sort kernels: keys is the
// distribution source (NewSet's packed words, the codec's decoded
// keys), idx the index projection and its radix ping-pong twin, counts
// the bucket cursors of either kernel.
type sortBuf struct {
	keys   []Key
	idx    []int32
	counts []int32
}

var sortPool = sync.Pool{New: func() any { return new(sortBuf) }}

// grow returns s[:n], reallocating when the capacity is short. Pooled
// scratch grows to the largest set seen and is then reused.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		//kylix:allow hotpathalloc:make -- pooled scratch grows to the largest set seen, then is reused
		return make([]T, n)
	}
	return s[:n]
}

const (
	// comparisonSortBelow is the size under which the kernels' fixed
	// costs (histogram clear, two or three passes) exceed a comparison
	// sort of the whole input.
	comparisonSortBelow = 48
	// bucketsPerKey sizes the distribution sort's histogram. Two
	// buckets a key measured fastest at 2^9..2^14 keys: fewer leave the
	// insertion finish more to move (and to mispredict), more cost more
	// in clearing and scanning the histogram than they save.
	bucketsPerKey = 2
	// bucketInsertionMax is the largest bucket left to the insertion
	// finish. Uniform hashes average half a key a bucket and the chance
	// of more than this many is negligible; a bucket beyond it means
	// duplicates or indices crafted to collide in their top hash bits,
	// and is comparison-sorted first so the finish stays O(n log n) on
	// any input.
	bucketInsertionMax = 24
)

// sortKeysInto writes the keys of src to dst (same length, no overlap)
// in ascending order and reports how many overfull buckets fell back to
// a comparison sort. Only the hash halves steer the distribution; the
// finish — one insertion pass over dst, in which no key moves further
// than its own bucket — compares whole words, so words that share a
// hash (NewSet's duplicates, told apart by their low halves) end
// ordered too.
//
//kylix:hotpath
func sortKeysInto(dst, src []Key, sb *sortBuf) (fallbacks int) {
	n := len(src)
	if n < comparisonSortBelow {
		copy(dst, src)
		slices.Sort(dst)
		return 0
	}
	lo, hi := src[0], src[0]
	for _, k := range src[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	// Bucket b holds the keys whose hash lies in the b-th of nb equal
	// slices of [lo.Hash(), hi.Hash()]: (h-base)*scale>>32 is monotone
	// in h and below nb for every h up to hi.Hash().
	base := lo.Hash()
	nb := bucketsPerKey * n
	scale := uint64(nb) << 32 / (uint64(hi.Hash()-base) + 1)
	sb.counts = grow(sb.counts, nb)
	counts := sb.counts
	clear(counts)
	for _, k := range src {
		counts[uint64(k.Hash()-base)*scale>>32]++
	}
	sum := int32(0)
	for b, c := range counts {
		counts[b] = sum
		sum += c
		fallbacks += b2i(c > bucketInsertionMax)
	}
	for _, k := range src {
		b := uint64(k.Hash()-base) * scale >> 32
		dst[counts[b]] = k
		counts[b]++
	}
	if fallbacks > 0 {
		// Each cursor now sits at its bucket's end.
		start := int32(0)
		for _, end := range counts {
			if end-start > bucketInsertionMax {
				slices.Sort(dst[start:end])
			}
			start = end
		}
	}
	insertionSort(dst)
	return fallbacks
}

//kylix:hotpath
func insertionSort(s []Key) {
	for i := 1; i < len(s); i++ {
		k, j := s[i], i
		for ; j > 0 && s[j-1] > k; j-- {
			s[j] = s[j-1]
		}
		s[j] = k
	}
}

// sortIndices sorts non-negative indices ascending by LSD radix passes
// over the bits set in or (the OR of all of a), ping-ponging between a
// and b (same length, no overlap), and returns whichever of the two
// holds the result. The digit width follows the input size — a
// histogram larger than the input costs more to clear and scan than the
// pass it saves — and is then evened out over the passes needed.
//
//kylix:hotpath
func sortIndices(a, b []int32, or uint32, sb *sortBuf) []int32 {
	n := len(a)
	if n < comparisonSortBelow {
		slices.Sort(a)
		return a
	}
	width := min(max(bits.Len(uint(n))-1, 8), 11)
	passes := (bits.Len32(or) + width - 1) / width
	if passes > 1 {
		width = (bits.Len32(or) + passes - 1) / passes
	}
	sb.counts = grow(sb.counts, 1<<width)
	counts := sb.counts
	mask := uint32(1)<<width - 1
	for shift := 0; passes > 0; passes, shift = passes-1, shift+width {
		clear(counts)
		for _, x := range a {
			counts[uint32(x)>>shift&mask]++
		}
		sum := int32(0)
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, x := range a {
			d := uint32(x) >> shift & mask
			b[counts[d]] = x
			counts[d]++
		}
		a, b = b, a
	}
	return a
}
