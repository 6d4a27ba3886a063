package sparse

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The reference value codec: the converters and block kernels as they
// stood before the fast paths, kept verbatim as the oracle the kernels
// in quant.go must match bit for bit — same bytes, same residuals.

func refFloat32ToFP16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	e32 := (b >> 23) & 0xff
	man := b & 0x7fffff
	if e32 == 0xff { // Inf / NaN
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	he := int32(e32) - 112 // rebias 127 -> 15
	switch {
	case he >= 31: // overflow -> Inf
		return sign | 0x7c00
	case he >= 1: // normal half
		h := sign | uint16(he)<<10 | uint16(man>>13)
		round := man & 0x1fff
		if round > 0x1000 || (round == 0x1000 && h&1 == 1) {
			h++ // mantissa carry overflows into the exponent, which is exactly RNE
		}
		return h
	case he >= -10: // subnormal half
		sig := man | 0x800000
		shift := uint32(14 - he) // 14..24
		h := sign | uint16(sig>>shift)
		round := sig & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if round > half || (round == half && h&1 == 1) {
			h++ // may carry into 2^-14, the smallest normal, which is correct
		}
		return h
	default: // underflow (including every float32 subnormal) -> signed zero
		return sign
	}
}

func refFP16BitsToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h) & 0x3ff
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: man * 2^-24, renormalized for float32.
		k := uint32(bits.Len32(man) - 1)
		return math.Float32frombits(sign | (k+103)<<23 | (man<<(10-k)&0x3ff)<<13)
	case exp == 31: // Inf / NaN
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

func refQuantizeFP16(dst []byte, vals, res []float32) {
	if len(vals) == 0 {
		return
	}
	_ = dst[2*len(vals)-1]
	if res == nil {
		j := 0
		for ; j+4 <= len(vals); j += 4 { // unrolled 4-wide like CombineInto
			d := dst[j*2 : j*2+8 : j*2+8]
			s := vals[j : j+4 : j+4]
			binary.LittleEndian.PutUint16(d[0:], refFloat32ToFP16Bits(s[0]))
			binary.LittleEndian.PutUint16(d[2:], refFloat32ToFP16Bits(s[1]))
			binary.LittleEndian.PutUint16(d[4:], refFloat32ToFP16Bits(s[2]))
			binary.LittleEndian.PutUint16(d[6:], refFloat32ToFP16Bits(s[3]))
		}
		for ; j < len(vals); j++ {
			binary.LittleEndian.PutUint16(dst[j*2:], refFloat32ToFP16Bits(vals[j]))
		}
		return
	}
	res = res[:len(vals)]
	for j, v := range vals {
		x := v + res[j]
		h := refFloat32ToFP16Bits(x)
		binary.LittleEndian.PutUint16(dst[j*2:], h)
		res[j] = x - refFP16BitsToFloat32(h)
	}
}

func refDequantizeFP16(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[2*len(dst)-1]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		s := src[j*2 : j*2+8 : j*2+8]
		d := dst[j : j+4 : j+4]
		d[0] = refFP16BitsToFloat32(binary.LittleEndian.Uint16(s[0:]))
		d[1] = refFP16BitsToFloat32(binary.LittleEndian.Uint16(s[2:]))
		d[2] = refFP16BitsToFloat32(binary.LittleEndian.Uint16(s[4:]))
		d[3] = refFP16BitsToFloat32(binary.LittleEndian.Uint16(s[6:]))
	}
	for ; j < len(dst); j++ {
		dst[j] = refFP16BitsToFloat32(binary.LittleEndian.Uint16(src[j*2:]))
	}
}

func refQuantizeINT8(dst []byte, vals, res []float32) {
	n := len(vals)
	if n == 0 {
		return
	}
	_ = dst[4+n-1]
	var maxabs float32
	if res == nil {
		for _, v := range vals {
			if a := abs32(v); a > maxabs {
				maxabs = a
			}
		}
	} else {
		res = res[:n]
		for j, v := range vals {
			if a := abs32(v + res[j]); a > maxabs {
				maxabs = a
			}
		}
	}
	scale := maxabs / 127
	binary.LittleEndian.PutUint32(dst, math.Float32bits(scale))
	q := dst[4 : 4+n : 4+n]
	if scale == 0 { // all-zero block (or all values subnormal-tiny)
		for j := range q {
			q[j] = 0
		}
		if res != nil {
			for j, v := range vals {
				res[j] = v + res[j]
			}
		}
		return
	}
	inv := 1 / scale
	if res == nil {
		for j, v := range vals {
			q[j] = byte(refQuantInt8(v * inv))
		}
		return
	}
	for j, v := range vals {
		x := v + res[j]
		k := refQuantInt8(x * inv)
		q[j] = byte(k)
		res[j] = x - float32(k)*scale
	}
}

func refQuantInt8(r float32) int8 {
	switch {
	case r >= 127:
		return 127
	case r <= -127:
		return -127
	case r >= 0:
		return int8(r + 0.5)
	case r < 0:
		return int8(r - 0.5)
	default: // NaN
		return 0
	}
}

// checkCodecs runs every kernel and converter against its reference on
// vals: the converters elementwise, each encoder without feedback and
// with a copy of res (bytes and residual bits), and each decoder on the
// bytes the reference encoder produced.
func checkCodecs(t testing.TB, vals, res []float32) {
	t.Helper()
	for _, v := range vals {
		if got, want := Float32ToFP16Bits(v), refFloat32ToFP16Bits(v); got != want {
			t.Fatalf("Float32ToFP16Bits(%#08x) = %#04x, reference %#04x", math.Float32bits(v), got, want)
		}
	}
	kernels := []struct {
		q        Quantization
		enc, ref func(dst []byte, vals, res []float32)
		dec, rdc func(dst []float32, src []byte)
	}{
		{QuantFP16, QuantizeFP16, refQuantizeFP16, DequantizeFP16, refDequantizeFP16},
		{QuantINT8, QuantizeINT8, refQuantizeINT8, DequantizeINT8, DequantizeINT8},
	}
	for _, k := range kernels {
		for _, feedback := range []bool{false, true} {
			got, want := make([]byte, QuantizedSize(k.q, len(vals))), make([]byte, QuantizedSize(k.q, len(vals)))
			var gotRes, wantRes []float32
			if feedback {
				gotRes, wantRes = append([]float32(nil), res...), append([]float32(nil), res...)
			}
			k.enc(got, vals, gotRes)
			k.ref(want, vals, wantRes)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v feedback=%v: byte %d = %#02x, reference %#02x (block of %d)", k.q, feedback, i, got[i], want[i], len(vals))
				}
			}
			for j := range gotRes {
				if math.Float32bits(gotRes[j]) != math.Float32bits(wantRes[j]) {
					t.Fatalf("%v: residual %d = %#08x, reference %#08x (x = %#08x + %#08x)", k.q, j,
						math.Float32bits(gotRes[j]), math.Float32bits(wantRes[j]), math.Float32bits(vals[j]), math.Float32bits(res[j]))
				}
			}
			gotDec, wantDec := make([]float32, len(vals)), make([]float32, len(vals))
			k.dec(gotDec, want)
			k.rdc(wantDec, want)
			if !slices.Equal(bitsOf(gotDec), bitsOf(wantDec)) {
				t.Fatalf("%v: decoded bits differ from the reference", k.q)
			}
		}
	}
}

func bitsOf(vals []float32) []uint32 {
	b := make([]uint32, len(vals))
	for j, v := range vals {
		b[j] = math.Float32bits(v)
	}
	return b
}

// TestFP16WidenMatchesReference widens every one of the 65,536 halves,
// one by one and as one block.
func TestFP16WidenMatchesReference(t *testing.T) {
	src := make([]byte, 2<<16)
	for h := 0; h < 1<<16; h++ {
		if got, want := FP16BitsToFloat32(uint16(h)), refFP16BitsToFloat32(uint16(h)); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("FP16BitsToFloat32(%#04x) = %#08x, reference %#08x", h, math.Float32bits(got), math.Float32bits(want))
		}
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	got, want := make([]float32, 1<<16), make([]float32, 1<<16)
	DequantizeFP16(got, src)
	refDequantizeFP16(want, src)
	if !slices.Equal(bitsOf(got), bitsOf(want)) {
		t.Fatal("DequantizeFP16 over all halves differs from the reference")
	}
}

// TestFP16NarrowMatchesReferenceByExponent narrows, with and without
// feedback, every float32 exponent × sign × the rounding cases of the
// 13 dropped bits (below, at and above the half, each with kept lsb 0
// and 1) under three upper mantissas, then random mantissas per
// exponent and random words.
func TestFP16NarrowMatchesReferenceByExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var vals []float32
	for e := uint32(0); e < 256; e++ {
		for sign := uint32(0); sign < 2; sign++ {
			for _, low := range []uint32{0x0000, 0x0fff, 0x1000, 0x1001, 0x1fff} {
				for lsb := uint32(0); lsb < 2; lsb++ {
					for _, hi := range []uint32{0, 0x1ff, rng.Uint32() & 0x1ff} {
						vals = append(vals, math.Float32frombits(sign<<31|e<<23|hi<<14|lsb<<13|low))
					}
				}
			}
			for i := 0; i < 64; i++ {
				vals = append(vals, math.Float32frombits(sign<<31|e<<23|rng.Uint32()&0x7fffff))
			}
		}
	}
	for i := 0; i < 1<<18; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	// Residuals: +0 (x is the value itself, -0 aside), small errors of
	// either sign, and random words.
	res := make([]float32, len(vals))
	checkCodecs(t, vals, res)
	for j := range res {
		res[j] = vals[j] * float32(rng.NormFloat64()) * 0x1p-12
	}
	checkCodecs(t, vals, res)
	for j := range res {
		res[j] = math.Float32frombits(rng.Uint32())
	}
	checkCodecs(t, vals, res)
}

// int8Classes are the value classes the INT8 identity test draws
// blocks from: every float32 word (NaN and Inf included), unit normals,
// subnormals, maxima whose scale is subnormal yet invertible,
// integers on the code grid, values near the float32 top, and the
// benchmark's positive 0.5-1.5.
var int8Classes = []func(*rand.Rand) float32{
	func(r *rand.Rand) float32 { return math.Float32frombits(r.Uint32()) },
	func(r *rand.Rand) float32 { return float32(r.NormFloat64()) },
	func(r *rand.Rand) float32 { return float32(r.NormFloat64() * 1e-40) },
	func(r *rand.Rand) float32 { return float32((r.Float64()*2 - 1) * 1.5e-36) },
	func(r *rand.Rand) float32 { return float32(r.Intn(255) - 127) },
	func(r *rand.Rand) float32 { return float32((r.Float64()*2 - 1) * 1e38) },
	func(r *rand.Rand) float32 { return 0.5 + r.Float32() },
}

// TestQuantizeINT8MatchesReference encodes ~200k random blocks of 1-40
// values: most of one class, some mixing all classes, each without
// feedback and with residuals that are zero, small, or one round's
// error of the reference itself. The fixed blocks are the degenerate
// ones: all zeros, a scale that underflows to 0, a subnormal scale
// whose inverse overflows, and one whose inverse does not.
func TestQuantizeINT8MatchesReference(t *testing.T) {
	for _, block := range [][]float32{
		{0, 0, 0, 0, 0},
		{float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1))},
		{1e-44, -1e-45, 0},
		{1e-37, -5e-38, 3e-38, 0, 1e-38},
		{7.4e-37, -5e-37, 1e-40, 2e-37, 6e-37},
		{float32(math.Inf(1)), 1, 2},
		{float32(math.NaN()), 1, -3},
		{math.MaxFloat32, -math.MaxFloat32, 1},
	} {
		checkCodecs(t, block, make([]float32, len(block)))
	}
	rng := rand.New(rand.NewSource(2014))
	blocks := 200000
	if testing.Short() {
		blocks = 20000
	}
	for b := 0; b < blocks; b++ {
		vals := make([]float32, 1+rng.Intn(40))
		class := rng.Intn(len(int8Classes) + 1)
		for j := range vals {
			c := class
			if c == len(int8Classes) { // mixed
				c = rng.Intn(len(int8Classes))
			}
			vals[j] = int8Classes[c](rng)
		}
		res := make([]float32, len(vals))
		switch rng.Intn(3) {
		case 1:
			for j := range res {
				res[j] = float32(rng.NormFloat64()) * 1e-3
			}
		case 2:
			refQuantizeINT8(make([]byte, 4+len(vals)), vals, res)
		}
		checkCodecs(t, vals, res)
	}
}

// TestCodecFastPathShare logs the share of elements that take the fast
// paths on the probe's input — tenants-tcp-8's positive 0.5-1.5 values
// at tenant A's layer-1 piece length, the residual carried over eight
// rounds as the probe carries it — and on the benchmarks' sums.
func TestCodecFastPathShare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probe := make([]float32, 3440)
	for j := range probe {
		probe[j] = 0.5 + rng.Float32()
	}
	inputs := [][]float32{probe}
	for _, in := range codecInputs()[1:] {
		inputs = append(inputs, in.vals)
	}
	var elems, fp16Fast, int8Fast, int8Unsigned int
	for _, vals := range inputs {
		n := len(vals)
		res16, res8 := make([]float32, n), make([]float32, n)
		dst16, dst8 := make([]byte, 2*n), make([]byte, 4+n)
		for round := 0; round < 8; round++ {
			var maxabs float32
			unsigned := true
			for j, v := range vals {
				if _, _, ok := narrowFP16(math.Float32bits(v + res16[j])); ok {
					fp16Fast++
				}
				maxabs = max(maxabs, abs32(v+res8[j]))
				unsigned = unsigned && math.Float32bits(v+res8[j])>>31 == 0
			}
			if scale := maxabs / 127; scale != 0 && !math.IsInf(float64(1/scale), 0) && !math.IsInf(float64(maxabs), 0) {
				int8Fast += n
				if unsigned {
					int8Unsigned += n
				}
			}
			elems += n
			QuantizeFP16(dst16, vals, res16)
			QuantizeINT8(dst8, vals, res8)
		}
	}
	t.Logf("fast path on %d probe-shaped elements: fp16 %.2f %%, int8 %.2f %% (unsigned loop %.2f %%)", elems,
		100*float64(fp16Fast)/float64(elems), 100*float64(int8Fast)/float64(elems), 100*float64(int8Unsigned)/float64(elems))
	if fp16Fast != elems || int8Fast != elems || int8Unsigned != elems {
		t.Errorf("positive values left the fast path: fp16 %d, int8 %d (unsigned %d) of %d", fp16Fast, int8Fast, int8Unsigned, elems)
	}
}

// FuzzQuantizeMatchesReference is the exhaustive net tier-1 samples:
// each input narrows all 65,536 float32 words with high half hi (so the
// 65,536 values of hi cover every float32), and runs data's words as a
// block through every kernel with the words after them as residuals.
func FuzzQuantizeMatchesReference(f *testing.F) {
	f.Add(uint16(0x3f80), []byte("\x00\x00\x80\x3f\x00\x00\x00\xc0\x01\x00\x80\x7f"))
	f.Add(uint16(0x4780), []byte("\xff\xff\x7f\x7f\x00\x00\x00\x00"))
	f.Add(uint16(0x3880), []byte("\x01\x00\x00\x00\x00\x00\x80\x00"))
	f.Fuzz(func(t *testing.T, hi uint16, data []byte) {
		sweep := make([]float32, 1<<16)
		for lo := range sweep {
			sweep[lo] = math.Float32frombits(uint32(hi)<<16 | uint32(lo))
		}
		checkCodecs(t, sweep, make([]float32, len(sweep)))
		words := make([]float32, len(data)/4)
		for j := range words {
			words[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*j:]))
		}
		n := (len(words) + 1) / 2
		res := make([]float32, n)
		copy(res, words[n:])
		checkCodecs(t, words[:n], res)
	})
}
