package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewVecValidate(t *testing.T) {
	keys := MustNewSet([]int32{1, 2, 3})
	v := NewVec(keys, 2)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(v.Data) != 6 {
		t.Fatalf("data length %d, want 6", len(v.Data))
	}
	v.Width = 0
	if err := v.Validate(); err == nil {
		t.Fatal("want error for zero width")
	}
	v.Width = 3
	if err := v.Validate(); err == nil {
		t.Fatal("want error for shape mismatch")
	}
}

func TestVecRow(t *testing.T) {
	v := NewVec(MustNewSet([]int32{1, 2}), 3)
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	r := v.Row(1)
	if r[0] != 3 || r[2] != 5 {
		t.Fatalf("Row(1) = %v", r)
	}
}

func TestSumCombine(t *testing.T) {
	dst := []float32{1, 2, 3}
	Sum.Combine(dst, []float32{10, 20, 30})
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Fatalf("sum combine = %v", dst)
	}
}

func TestMaxMinCombine(t *testing.T) {
	dst := []float32{1, 5}
	Max.Combine(dst, []float32{3, 2})
	if dst[0] != 3 || dst[1] != 5 {
		t.Fatalf("max combine = %v", dst)
	}
	dst = []float32{1, 5}
	Min.Combine(dst, []float32{3, 2})
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("min combine = %v", dst)
	}
	if Max.Identity() != float32(math.Inf(-1)) || Min.Identity() != float32(math.Inf(1)) {
		t.Error("wrong identities")
	}
}

func TestOrCombine(t *testing.T) {
	a := math.Float32frombits(0b1010)
	b := math.Float32frombits(0b0110)
	dst := []float32{a}
	Or.Combine(dst, []float32{b})
	if math.Float32bits(dst[0]) != 0b1110 {
		t.Fatalf("or combine bits = %b", math.Float32bits(dst[0]))
	}
	if Or.Identity() != 0 {
		t.Error("or identity should be all-zero bits")
	}
}

func TestReducerNames(t *testing.T) {
	for _, tc := range []struct {
		r    Reducer
		name string
	}{{Sum, "sum"}, {Max, "max"}, {Min, "min"}, {Or, "or"}} {
		if tc.r.Name() != tc.name {
			t.Errorf("reducer name %q, want %q", tc.r.Name(), tc.name)
		}
	}
}

func TestCombineIntoWidth1(t *testing.T) {
	dst := make([]float32, 4)
	m := []int32{2, 0, 2}
	src := []float32{1, 5, 10}
	CombineInto(Sum, dst, m, src, 1)
	want := []float32{5, 0, 11, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestCombineIntoSkipsNegative(t *testing.T) {
	dst := make([]float32, 2)
	CombineInto(Sum, dst, []int32{-1, 1}, []float32{9, 4}, 1)
	if dst[0] != 0 || dst[1] != 4 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestCombineIntoWide(t *testing.T) {
	dst := make([]float32, 6) // 3 rows, width 2
	m := []int32{1, 1}
	src := []float32{1, 2, 10, 20}
	CombineInto(Sum, dst, m, src, 2)
	if dst[2] != 11 || dst[3] != 22 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestCombineIntoNonSumWidth1(t *testing.T) {
	dst := []float32{5, 5}
	CombineInto(Max, dst, []int32{0, 1}, []float32{9, 1}, 1)
	if dst[0] != 9 || dst[1] != 5 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestGatherInto(t *testing.T) {
	src := []float32{10, 20, 30}
	dst := make([]float32, 3)
	GatherInto(dst, []int32{2, 0, -1}, src, 1, -1)
	if dst[0] != 30 || dst[1] != 10 || dst[2] != -1 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestGatherIntoWide(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	GatherInto(dst, []int32{1, -1}, src, 2, 7)
	want := []float32{3, 4, 7, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

// TestScatterUndoesGather checks ScatterInto against GatherInto through
// the inverse map, at widths 1 and 3.
func TestScatterUndoesGather(t *testing.T) {
	perm := []int32{2, 0, 3, 1}
	inv := make([]int32, len(perm))
	for p, q := range perm {
		inv[q] = int32(p)
	}
	for _, w := range []int{1, 3} {
		src := make([]float32, len(perm)*w)
		for i := range src {
			src[i] = float32(i)
		}
		got, want := make([]float32, len(src)), make([]float32, len(src))
		ScatterInto(got, perm, src, w)
		GatherInto(want, inv, src, w, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d: scatter %v, gather through the inverse %v", w, got, want)
			}
		}
	}
}

// genericReducer wraps a builtin reducer so CombineInto cannot
// recognise it, forcing the row-by-row interface path — the reference
// implementation the specialised width/reducer kernels must match.
type genericReducer struct{ Reducer }

func (g genericReducer) Name() string { return "generic-" + g.Reducer.Name() }

// The width-1/width-4/strided specialisations must agree exactly with
// the generic per-row path for every builtin reducer, including -1
// (skip) entries in the map.
func TestCombineIntoSpecialisationsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, red := range []Reducer{Sum, Max, Min, Or} {
		for _, width := range []int{1, 3, 4, 8} {
			const rows, accRows = 200, 64
			m := make([]int32, rows)
			src := make([]float32, rows*width)
			for i := range m {
				if rng.Intn(8) == 0 {
					m[i] = -1
				} else {
					m[i] = rng.Int31n(accRows)
				}
			}
			for i := range src {
				src[i] = rng.Float32()*4 - 2
			}
			got := make([]float32, accRows*width)
			want := make([]float32, accRows*width)
			Fill(got, red.Identity())
			Fill(want, red.Identity())
			CombineInto(red, got, m, src, width)
			CombineInto(genericReducer{red}, want, m, src, width)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s width %d slot %d: got %v want %v", red.Name(), width, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGatherIntoWidth4(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float32, 12)
	GatherInto(dst, []int32{1, -1, 0}, src, 4, 9)
	want := []float32{5, 6, 7, 8, 9, 9, 9, 9, 1, 2, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestFill(t *testing.T) {
	d := make([]float32, 3)
	Fill(d, 2.5)
	for _, v := range d {
		if v != 2.5 {
			t.Fatal("fill failed")
		}
	}
	// +0 takes the clear; -0 is not all-zero bits and must keep its sign.
	for _, v := range []float32{0, float32(math.Copysign(0, -1))} {
		Fill(d, v)
		for _, got := range d {
			if math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("Fill(%v) left %#08x", v, math.Float32bits(got))
			}
		}
	}
}

// Round-trip property: scattering values through UnionWithMaps position
// maps and gathering them back must reproduce the original rows.
func TestMapsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		sets := make([]Set, 4)
		vals := make([][]float32, 4)
		for i := range sets {
			sets[i] = randomSet(rng, 64, 128)
			vals[i] = make([]float32, len(sets[i]))
			for j := range vals[i] {
				vals[i][j] = rng.Float32()
			}
		}
		union, maps := UnionWithMaps(sets)
		acc := make([]float32, len(union))
		for i := range sets {
			CombineInto(Sum, acc, maps[i], vals[i], 1)
		}
		// Gather each input's view back and compare to brute force.
		want := make(map[Key]float32)
		for i, s := range sets {
			for j, k := range s {
				want[k] += vals[i][j]
			}
		}
		for i, s := range sets {
			got := make([]float32, len(s))
			GatherInto(got, maps[i], acc, 1, 0)
			for j, k := range s {
				if diff := float64(got[j] - want[k]); math.Abs(diff) > 1e-4 {
					t.Fatalf("trial %d set %d slot %d: got %f want %f", trial, i, j, got[j], want[k])
				}
			}
		}
	}
}

func BenchmarkTreeMergeVsHash(b *testing.B) {
	// The §VI-A ablation: tree merging sorted runs vs a hash-table
	// union, on 64 power-law-ish sets. Run with -bench to compare the
	// two sub-benchmarks; the paper reports ~5x for tree.
	rng := rand.New(rand.NewSource(5))
	sets := make([]Set, 64)
	for i := range sets {
		sets[i] = randomSet(rng, 20000, 1<<20)
	}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TreeUnion(sets)
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HashUnion(sets)
		}
	})
}
