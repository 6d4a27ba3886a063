package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// Package-level micro-benchmarks of the protocol's hot kernels.

func benchSets(n int) []Set {
	rng := rand.New(rand.NewSource(1))
	sets := make([]Set, 8)
	for i := range sets {
		sets[i] = randomSet(rng, int32(n), int32(n*4))
	}
	return sets
}

func BenchmarkUnionWithMaps(b *testing.B) {
	sets := benchSets(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionWithMaps(sets)
	}
}

func BenchmarkCombineIntoSum(b *testing.B) {
	sets := benchSets(8192)
	union, maps := UnionWithMaps(sets)
	acc := make([]float32, len(union))
	src := make([]float32, len(sets[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CombineInto(Sum, acc, maps[0], src, 1)
	}
}

func BenchmarkCombineIntoSumW4(b *testing.B) {
	sets := benchSets(8192)
	union, maps := UnionWithMaps(sets)
	acc := make([]float32, len(union)*4)
	src := make([]float32, len(sets[0])*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CombineInto(Sum, acc, maps[0], src, 4)
	}
}

func BenchmarkCombineIntoMaxW1(b *testing.B) {
	sets := benchSets(8192)
	union, maps := UnionWithMaps(sets)
	acc := make([]float32, len(union))
	src := make([]float32, len(sets[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CombineInto(Max, acc, maps[0], src, 1)
	}
}

func BenchmarkGatherIntoW4(b *testing.B) {
	sets := benchSets(8192)
	union, maps := UnionWithMaps(sets)
	src := make([]float32, len(union)*4)
	dst := make([]float32, len(sets[0])*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherInto(dst, maps[0], src, 4, 0)
	}
}

func BenchmarkTreeUnion(b *testing.B) {
	sets := benchSets(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TreeUnion(sets)
	}
}

func BenchmarkGatherInto(b *testing.B) {
	sets := benchSets(8192)
	union, maps := UnionWithMaps(sets)
	src := make([]float32, len(union))
	dst := make([]float32, len(sets[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherInto(dst, maps[0], src, 1, 0)
	}
}

func BenchmarkSplitOffsets(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := randomSet(rng, 1<<16, 1<<22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitOffsets(s, FullRange(), 8)
	}
}

// BenchmarkNewSet prices the caller-order -> key-order step of the root
// API at a minibatch (2^11) and a graph-partition (2^14) size, on the
// three inputs that matter: caller order unrelated to key order
// (shuffled), a set that has been through the protocol once (sorted:
// the sort is skipped), and that set with a tenth of its indices
// replaced in place (tenth-replaced: nearly sorted, the minibatch
// Reconfigure input).
func BenchmarkNewSet(b *testing.B) {
	for _, logN := range []int{11, 14} {
		rng := rand.New(rand.NewSource(3))
		shuffled := make([]int32, 1<<logN)
		for i := range shuffled {
			shuffled[i] = rng.Int31n(1 << 20)
		}
		sorted := MustNewSet(shuffled).Indices()
		replaced := append([]int32(nil), sorted...)
		for i := 0; i < len(replaced); i += 10 {
			replaced[i] = rng.Int31n(1 << 20)
		}
		for _, c := range []struct {
			name string
			idx  []int32
		}{{"sorted", sorted}, {"shuffled", shuffled}, {"tenth-replaced", replaced}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, len(c.idx)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := NewSet(c.idx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
