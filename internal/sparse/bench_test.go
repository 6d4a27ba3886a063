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

// rotation is how many distinct inputs the configuration-kernel
// benchmarks cycle through. Replaying one input lets the branch
// predictor learn its comparison outcomes — at a few thousand keys it
// memorises them outright — which flatters exactly the branchy kernels
// these benchmarks exist to price; the configuration pass never sees
// the same keys twice.
const rotation = 64

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
		var shuffled, sorted, replaced [rotation][]int32
		for r := range shuffled {
			shuffled[r] = make([]int32, 1<<logN)
			for i := range shuffled[r] {
				shuffled[r][i] = rng.Int31n(1 << 20)
			}
			sorted[r] = MustNewSet(shuffled[r]).Indices()
			replaced[r] = append([]int32(nil), sorted[r]...)
			for i := 0; i < len(replaced[r]); i += 10 {
				replaced[r][i] = rng.Int31n(1 << 20)
			}
		}
		for _, c := range []struct {
			name string
			idx  *[rotation][]int32
		}{{"sorted", &sorted}, {"shuffled", &shuffled}, {"tenth-replaced", &replaced}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, 1<<logN), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := NewSet(c.idx[i%rotation]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkUnionMaps prices the configuration pass's union-with-maps
// step at a minibatch layer's shape (4 pieces of 512 keys) and a
// graph-partition layer's (8 of 8192); pieces overlap the way layer
// neighbours' do (each draws its keys from a space four times its
// size).
func BenchmarkUnionMaps(b *testing.B) {
	for _, c := range []struct{ d, n int }{{4, 512}, {8, 8192}} {
		rng := rand.New(rand.NewSource(4))
		var inputs [rotation][]Set
		for r := range inputs {
			inputs[r] = make([]Set, c.d)
			for t := range inputs[r] {
				inputs[r][t] = randomSet(rng, int32(c.n), int32(c.n*4))
			}
		}
		maps := make([][]int32, c.d)
		for t := range maps {
			maps[t] = make([]int32, c.n)
		}
		b.Run(fmt.Sprintf("%dx%d", c.d, c.n), func(b *testing.B) {
			var u UnionScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sets := inputs[i%rotation]
				for t := range maps {
					maps[t] = maps[t][:len(sets[t])]
				}
				u.UnionMaps(sets, maps)
			}
		})
	}
}
