package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

func TestUnionMapsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(9)
		sets := make([]Set, k)
		maps := make([][]int32, k)
		for i := range sets {
			n := rng.Intn(30)
			idx := make([]int32, n)
			for j := range idx {
				idx[j] = int32(rng.Intn(40))
			}
			sets[i] = MustNewSet(idx)
			maps[i] = make([]int32, len(sets[i]))
		}
		var u UnionScratch
		got := u.UnionMaps(sets, maps)
		want, wantMaps := UnionWithMaps(sets)
		if len(got) != len(want) {
			t.Fatalf("trial %d: union len %d want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: union[%d] = %d want %d", trial, i, got[i], want[i])
			}
		}
		for s := range maps {
			for j := range maps[s] {
				if maps[s][j] != wantMaps[s][j] {
					t.Fatalf("trial %d: maps[%d][%d] = %d want %d (k=%d)", trial, s, j, maps[s][j], wantMaps[s][j], k)
				}
			}
		}
	}
}

// FuzzUnionMaps drives one UnionScratch through a sequence of unions
// decoded from the input and checks every union and position map
// against the hash-union oracle. Each call takes a header byte — its
// piece count (0–9) and whether to poison the scratch first — and the
// span of the index space (small spans overlap the pieces, large ones
// keep them apart); each piece takes a byte that makes it empty, a
// repeat of an earlier piece, or up to ~4,000 random keys. One scratch
// reused with stale contents of any size is what a pooled work space
// sees.
func FuzzUnionMaps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 40, 0, 200})
	f.Add([]byte{9, 255, 250, 10, 0xF3, 20, 0, 240, 0xF1, 30, 255, 2, 1, 255, 255})
	f.Add([]byte{0x85, 2, 100, 100, 100, 100, 100, 1, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 30, 255, 0xF0, 4, 30, 80, 0xF0, 0, 0xF2, 0x87, 255, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		var u UnionScratch
		for call := 0; len(data) >= 2 && call < 32; call++ {
			k, poison, span := int(data[0]%10), data[0] >= 0x80, 1+int(data[1])*int(data[1])
			data = data[2:]
			sets := make([]Set, k)
			for i := range sets {
				var b byte
				if len(data) > 0 {
					b, data = data[0], data[1:]
				}
				switch {
				case b == 0: // empty
				case b >= 0xF0 && i > 0:
					sets[i] = sets[int(b)%i]
				default:
					rng := rand.New(rand.NewSource(int64(call)<<8 | int64(b)))
					idx := make([]int32, int(b)*int(b)/16)
					for j := range idx {
						idx[j] = int32(rng.Intn(span))
					}
					sets[i] = MustNewSet(idx)
				}
			}
			maps := make([][]int32, k)
			for i := range maps {
				maps[i] = make([]int32, len(sets[i]))
			}
			if poison {
				u.Poison()
			}
			got := u.UnionMaps(sets, maps)
			want, wantMaps := HashUnionWithMaps(sets)
			if !slices.Equal(got, want) {
				t.Fatalf("call %d (%d pieces): union of %d keys, oracle %d", call, k, len(got), len(want))
			}
			for i := range maps {
				if !slices.Equal(maps[i], wantMaps[i]) {
					t.Fatalf("call %d (%d pieces): map of piece %d differs from the oracle's", call, k, i)
				}
			}
		}
	})
}
