package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFP16RoundTripAllHalves widens every one of the 65536 binary16
// bit patterns to float32 and narrows it back: the conversion pair must
// be the exact identity on representable values (NaN maps to the
// canonical quiet NaN, which is the one non-bijective case).
func TestFP16RoundTripAllHalves(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		f := FP16BitsToFloat32(uint16(h))
		got := Float32ToFP16Bits(f)
		exp := uint16(h) >> 10 & 0x1f
		man := uint16(h) & 0x3ff
		if exp == 31 && man != 0 { // NaN: kind preserved, payload canonicalized
			if !math.IsNaN(float64(f)) {
				t.Fatalf("half NaN %#04x widened to %v, want NaN", h, f)
			}
			if got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
				t.Fatalf("half NaN %#04x re-narrowed to %#04x, want a NaN", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("half %#04x -> %v -> %#04x, not identity", h, f, got)
		}
	}
}

// TestFP16WidenValues spot-checks the widening against hand-computed
// values across normals, subnormals, zeros and infinities.
func TestFP16WidenValues(t *testing.T) {
	cases := []struct {
		h    uint16
		want float32
	}{
		{0x0000, 0},
		{0x8000, float32(math.Copysign(0, -1))},
		{0x3c00, 1},
		{0xbc00, -1},
		{0x4000, 2},
		{0x3555, 0.33325195},    // nearest half to 1/3
		{0x7bff, 65504},         // largest finite half
		{0x0400, 6.1035156e-05}, // smallest normal, 2^-14
		{0x0001, 5.9604645e-08}, // smallest subnormal, 2^-24
		{0x03ff, 6.0975552e-05}, // largest subnormal
		{0x0200, 3.0517578e-05}, // mid subnormal, 2^-15
		{0x7c00, float32(math.Inf(1))},
		{0xfc00, float32(math.Inf(-1))},
	}
	for _, c := range cases {
		if got := FP16BitsToFloat32(c.h); got != c.want {
			t.Errorf("FP16BitsToFloat32(%#04x) = %v, want %v", c.h, got, c.want)
		}
		// Signed zero keeps its sign bit.
		if c.h == 0x8000 && math.Signbit(float64(FP16BitsToFloat32(c.h))) != true {
			t.Errorf("negative zero lost its sign")
		}
	}
}

// TestFP16NarrowRounding checks round-to-nearest-even at the dropped
// 13 bits, overflow to infinity, and the subnormal/underflow edges.
func TestFP16NarrowRounding(t *testing.T) {
	cases := []struct {
		f    float32
		want uint16
	}{
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff},     // largest finite half, exact
		{65520, 0x7c00},     // halfway to overflow: RNE carries to Inf
		{65519.996, 0x7bff}, // just under the halfway point
		{70000, 0x7c00},     // overflow
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{6.1035156e-05, 0x0400}, // 2^-14, smallest normal
		{5.9604645e-08, 0x0001}, // 2^-24, smallest subnormal
		{2.9802322e-08, 0x0000}, // 2^-25: tie to even -> 0
		{4.4703484e-08, 0x0001}, // 0.75*2^-24 rounds up
		{1e-38, 0x0000},         // deep underflow
		{1.0009766, 0x3c01},     // 1 + 2^-10 (one half ULP step), exact
		{1.0004883, 0x3c00},     // 1 + 2^-11: tie to even -> down
		{1.0014648, 0x3c02},     // 1 + 3*2^-11: tie to even -> up
	}
	for _, c := range cases {
		if got := Float32ToFP16Bits(c.f); got != c.want {
			t.Errorf("Float32ToFP16Bits(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
	if h := Float32ToFP16Bits(float32(math.NaN())); h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Errorf("NaN narrowed to %#04x, not a half NaN", h)
	}
	if h := Float32ToFP16Bits(float32(math.Copysign(0, -1))); h != 0x8000 {
		t.Errorf("-0 narrowed to %#04x, want 0x8000", h)
	}
}

// TestFP16NarrowMatchesReference cross-checks the fast narrowing
// against a float64-based reference over random floats: narrowing f is
// the binary16 value nearest f (ties to even), which the reference
// finds by widening both neighbour candidates.
func TestFP16NarrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200000; trial++ {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) {
			continue
		}
		got := FP16BitsToFloat32(Float32ToFP16Bits(f))
		// The round-trip must be the nearest representable half: no
		// other half value may be strictly closer.
		gd := math.Abs(float64(f) - float64(got))
		for delta := -2; delta <= 2; delta++ {
			h := int(Float32ToFP16Bits(f)) + delta
			if h < 0 || h > 0xffff {
				continue
			}
			alt := FP16BitsToFloat32(uint16(h))
			if math.IsNaN(float64(alt)) || math.IsInf(float64(alt), 0) != math.IsInf(float64(got), 0) {
				continue
			}
			if ad := math.Abs(float64(f) - float64(alt)); ad < gd {
				t.Fatalf("f=%v: rounded to %v (err %g) but %v is closer (err %g)", f, got, gd, alt, ad)
			}
		}
	}
}

// TestQuantizeFP16Block round-trips a block through the block kernels,
// with and without residuals.
func TestQuantizeFP16Block(t *testing.T) {
	vals := []float32{0, 1, -1, 0.5, 3.14159, -65504, 1e-7, 42.42, 7, -0.25, 1000, 0.1, 9}
	dst := make([]byte, QuantizedSize(QuantFP16, len(vals)))
	QuantizeFP16(dst, vals, nil)
	dec := make([]float32, len(vals))
	DequantizeFP16(dec, dst)
	for j, v := range vals {
		want := FP16BitsToFloat32(Float32ToFP16Bits(v))
		if dec[j] != want {
			t.Errorf("vals[%d]=%v decoded %v, want %v", j, v, dec[j], want)
		}
	}
	// With residuals: res accumulates exactly x - dequant(x).
	res := make([]float32, len(vals))
	QuantizeFP16(dst, vals, res)
	DequantizeFP16(dec, dst)
	for j, v := range vals {
		if got := dec[j] + res[j]; got != v {
			t.Errorf("vals[%d]=%v: dequant %v + residual %v = %v, want exact split", j, v, dec[j], res[j], got)
		}
	}
}

// TestQuantizeINT8Block checks scale selection, bounded error and the
// residual identity of the int8 kernel.
func TestQuantizeINT8Block(t *testing.T) {
	vals := []float32{0, 12.7, -12.7, 127, -127, 63.5, 1, -1, 0.05, 99.9, -3.3}
	dst := make([]byte, QuantizedSize(QuantINT8, len(vals)))
	res := make([]float32, len(vals))
	QuantizeINT8(dst, vals, res)
	dec := make([]float32, len(vals))
	DequantizeINT8(dec, dst)
	scale := float32(127.0 / 127.0) // maxabs = 127
	for j, v := range vals {
		if abs32(dec[j]-v) > scale/2+1e-6 {
			t.Errorf("vals[%d]=%v decoded %v, error beyond scale/2", j, v, dec[j])
		}
		if got := dec[j] + res[j]; got != v {
			t.Errorf("vals[%d]=%v: dequant %v + residual %v != value", j, v, dec[j], res[j])
		}
	}
	// Extremes hit the full code range.
	if dec[3] != 127 || dec[4] != -127 {
		t.Errorf("extremes decoded %v / %v, want +-127", dec[3], dec[4])
	}
	// All-zero block: scale 0, bytes 0.
	zeros := make([]float32, 5)
	zdst := make([]byte, QuantizedSize(QuantINT8, 5))
	QuantizeINT8(zdst, zeros, nil)
	zdec := make([]float32, 5)
	DequantizeINT8(zdec, zdst)
	for j, v := range zdec {
		if v != 0 {
			t.Errorf("zero block decoded %v at %d", v, j)
		}
	}
}

// TestErrorFeedbackConverges is the kernel-level accumulation property:
// a value far below the int8 quantization step contributes nothing per
// round without feedback, but with the residual the delivered sum over
// R rounds tracks R*value to within one quantization step.
func TestErrorFeedbackConverges(t *testing.T) {
	const rounds = 400
	// One dominant value fixes scale = 127/127 = 1; the tiny value 0.01
	// is far below the 0.5 rounding threshold.
	vals := []float32{127, 0.01}
	dst := make([]byte, QuantizedSize(QuantINT8, len(vals)))
	dec := make([]float32, len(vals))

	var naiveSum, efSum float64
	res := make([]float32, len(vals))
	for r := 0; r < rounds; r++ {
		QuantizeINT8(dst, vals, nil)
		DequantizeINT8(dec, dst)
		naiveSum += float64(dec[1])

		QuantizeINT8(dst, vals, res)
		DequantizeINT8(dec, dst)
		efSum += float64(dec[1])
	}
	want := float64(rounds) * 0.01
	if naiveSum != 0 {
		t.Fatalf("naive truncation delivered %v, expected it to lose the value entirely", naiveSum)
	}
	if math.Abs(efSum-want) > 1.5 { // within ~one quantization step of the true mass
		t.Fatalf("error feedback delivered %v over %d rounds, want ~%v", efSum, rounds, want)
	}
}

// TestQuantizeDeterministic: the encode kernels are pure functions of
// the input bits — two identical runs produce identical bytes and
// identical residual evolutions.
func TestQuantizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float32, 257)
	for j := range vals {
		vals[j] = (rng.Float32() - 0.5) * 200
	}
	for _, q := range []Quantization{QuantFP16, QuantINT8} {
		d1 := make([]byte, QuantizedSize(q, len(vals)))
		d2 := make([]byte, QuantizedSize(q, len(vals)))
		r1 := make([]float32, len(vals))
		r2 := make([]float32, len(vals))
		for round := 0; round < 5; round++ {
			Quantize(q, d1, vals, r1)
			Quantize(q, d2, vals, r2)
			if string(d1) != string(d2) {
				t.Fatalf("%v: round %d encodings differ", q, round)
			}
			if ValuesDigest(r1) != ValuesDigest(r2) {
				t.Fatalf("%v: round %d residuals differ", q, round)
			}
		}
	}
}

// TestQuantizationParse round-trips the mode names.
func TestQuantizationParse(t *testing.T) {
	for _, q := range []Quantization{QuantOff, QuantFP16, QuantINT8} {
		got, err := ParseQuantization(q.String())
		if err != nil || got != q {
			t.Errorf("ParseQuantization(%q) = %v, %v", q.String(), got, err)
		}
	}
	if _, err := ParseQuantization("fp8"); err == nil {
		t.Errorf("ParseQuantization accepted fp8")
	}
	if q, err := ParseQuantization(""); err != nil || q != QuantOff {
		t.Errorf("empty mode should parse as off")
	}
}

// TestValuesDigest: equal vectors agree, different bits disagree, and
// the signed-zero distinction is visible (bit-level, not value-level).
func TestValuesDigest(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2, 3}
	if ValuesDigest(a) != ValuesDigest(b) {
		t.Fatal("equal vectors digest differently")
	}
	b[2] = 3.0000002
	if ValuesDigest(a) == ValuesDigest(b) {
		t.Fatal("different vectors digest equal")
	}
	z := []float32{0}
	nz := []float32{float32(math.Copysign(0, -1))}
	if ValuesDigest(z) == ValuesDigest(nz) {
		t.Fatal("digest is not bit-level: +0 and -0 collide")
	}
}

// codecInput is one block the codec benchmarks encode, with the
// residual it starts from.
type codecInput struct {
	name      string
	vals, res []float32
}

// codecInputs are the code grid (values -127..127, all on the int8
// grid and mixed in sign, unlike any pass) and tenants-tcp-8's shape:
// positive sums of one to eight 0.5-1.5 values with one round's
// residual, at tenant A's layer-1 and layer-2 piece lengths (860 and
// 1079 rows of width 4).
func codecInputs() []codecInput {
	grid := make([]float32, 4096)
	for j := range grid {
		grid[j] = float32(j%255) - 127
	}
	in := []codecInput{{"grid4096", grid, make([]float32, len(grid))}}
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{3440, 4316} {
		vals := make([]float32, n)
		for j := range vals {
			for k := rng.Intn(8); k >= 0; k-- {
				vals[j] += 0.5 + rng.Float32()
			}
		}
		res := make([]float32, n)
		refQuantizeINT8(make([]byte, 4+n), vals, res)
		in = append(in, codecInput{fmt.Sprintf("sums%d", n), vals, res})
	}
	return in
}

// benchEncode runs an encoder and, in the same run, its Go form and its
// reference on every codec input, so scripts/bench.sh --gate can hold
// the fast/ref ratio — which a noisy box moves far less than ns/op.
func benchEncode(b *testing.B, q Quantization, fast, goForm, ref func(dst []byte, vals, res []float32)) {
	for _, in := range codecInputs() {
		for _, k := range []struct {
			name string
			enc  func(dst []byte, vals, res []float32)
		}{{"fast", fast}, {"go", goForm}, {"ref", ref}} {
			b.Run(in.name+"/"+k.name, func(b *testing.B) {
				dst := make([]byte, QuantizedSize(q, len(in.vals)))
				res := append([]float32(nil), in.res...)
				b.SetBytes(int64(4 * len(in.vals)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.enc(dst, in.vals, res)
				}
			})
		}
	}
}

// benchDecode is benchEncode for a decoder, on each input's encoding;
// a nil Go form is the reference itself.
func benchDecode(b *testing.B, q Quantization, fast, goForm, ref func(dst []float32, src []byte)) {
	for _, in := range codecInputs() {
		src := make([]byte, QuantizedSize(q, len(in.vals)))
		Quantize(q, src, in.vals, nil)
		for _, k := range []struct {
			name string
			dec  func(dst []float32, src []byte)
		}{{"fast", fast}, {"go", goForm}, {"ref", ref}} {
			if k.dec == nil {
				continue
			}
			b.Run(in.name+"/"+k.name, func(b *testing.B) {
				dst := make([]float32, len(in.vals))
				b.SetBytes(int64(4 * len(in.vals)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.dec(dst, src)
				}
			})
		}
	}
}

func BenchmarkQuantizeFP16(b *testing.B) {
	benchEncode(b, QuantFP16, QuantizeFP16, quantizeFP16Go, refQuantizeFP16)
}

func BenchmarkDequantizeFP16(b *testing.B) {
	benchDecode(b, QuantFP16, DequantizeFP16, dequantizeFP16Go, refDequantizeFP16)
}

func BenchmarkQuantizeINT8(b *testing.B) {
	benchEncode(b, QuantINT8, QuantizeINT8, quantizeINT8Go, refQuantizeINT8)
}

// BenchmarkDequantizeINT8's reference is its Go form: the decoder has
// kept its code since the codec's first version.
func BenchmarkDequantizeINT8(b *testing.B) {
	benchDecode(b, QuantINT8, DequantizeINT8, nil, dequantizeINT8Go)
}
