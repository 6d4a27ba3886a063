package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Quantized value wire formats.
//
// PR 5's index codec cut the configuration pass ~4x; after it, reduce
// and gather frames are dominated by raw float32 value blocks. This
// file is the value half of that trade (SparCML's stream quantization):
// two lossy fixed-point encodings of a value block, both deterministic
// — encoding is a pure elementwise function of the input bits, so every
// rank produces identical bytes for identical inputs — and both
// canonical (re-encoding a decoded block is byte-identical, which the
// transports rely on when they memoize encodings).
//
//   - FP16: IEEE 754 binary16 with round-to-nearest-even, 2 bytes per
//     value (2x under float32). Relative error <= 2^-11 per value over
//     the normal half range [2^-14, 65504]; subnormals, signed zeros,
//     infinities and NaN are preserved in kind.
//   - INT8: per-piece max-abs scaling, 1 byte per value plus a 4-byte
//     float32 scale header (~4x under float32 for realistic pieces).
//     q = trunc(fl(r ± 0.5)), r = x*(1/scale), clamped to [-127, 127],
//     scale = maxabs/127, decoded as q*scale. Absolute error <= scale/2
//     plus a float32 ulp (fl(0.49999997 + 0.5) = 1); non-finite inputs
//     are not representable (they quantize to 0 and belong in FP16 mode).
//
// Each kernel runs a call-free fast path on what a pass ships and hands
// the rest to the code it replaced (the oracle in quant_ref_test.go).
//
// Lossy encodings drift if the dropped precision is discarded: a value
// forever below the quantization step never contributes. The encode
// kernels therefore fuse error feedback (the SparCML accumulation): the
// caller keeps a residual buffer aligned with the piece, each round
// quantizes x = vals[j] + res[j], and the new residual res[j] = x -
// dequant(q(x)) carries the rounding error into the next round, so
// multi-round sums converge instead of silently losing mass.

// Quantization selects the wire encoding of reduce/gather value blocks.
type Quantization uint8

const (
	// QuantOff ships values as raw float32 (bit-exact, the default).
	QuantOff Quantization = iota
	// QuantFP16 ships IEEE binary16 values (2 bytes per value).
	QuantFP16
	// QuantINT8 ships max-abs-scaled int8 values (1 byte per value plus
	// a 4-byte per-piece scale).
	QuantINT8
)

// String implements fmt.Stringer.
func (q Quantization) String() string {
	switch q {
	case QuantOff:
		return "off"
	case QuantFP16:
		return "fp16"
	case QuantINT8:
		return "int8"
	default:
		return fmt.Sprintf("quant(%d)", uint8(q))
	}
}

// ParseQuantization parses the textual mode names used by flags.
func ParseQuantization(s string) (Quantization, error) {
	switch s {
	case "off", "":
		return QuantOff, nil
	case "fp16":
		return QuantFP16, nil
	case "int8":
		return QuantINT8, nil
	default:
		return QuantOff, fmt.Errorf("sparse: unknown quantization %q (want off, fp16 or int8)", s)
	}
}

// Valid reports whether q names a defined mode.
func (q Quantization) Valid() bool { return q <= QuantINT8 }

// QuantizedSize is the encoded byte size of an n-value block in mode q
// (0 for an empty block in every mode, so empty stays canonical).
func QuantizedSize(q Quantization, n int) int {
	if n == 0 {
		return 0
	}
	switch q {
	case QuantFP16:
		return 2 * n
	case QuantINT8:
		return 4 + n
	default:
		return 4 * n
	}
}

// Float32ToFP16Bits converts f to IEEE 754 binary16 with
// round-to-nearest-even. Overflow rounds to the like-signed infinity,
// underflow to the like-signed zero, and NaN maps to a quiet half NaN.
//
//kylix:hotpath
func Float32ToFP16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	if h, _, ok := narrowFP16(b); ok {
		return h
	}
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

// narrowFP16 narrows a word b with exponent 113..141 (no overflow) by
// adding 0xfff plus the kept lsb, nearest-even; w, the sum with 13 bits
// cleared, is h widened. ok reports whether b is in range.
//
//kylix:hotpath
func narrowFP16(b uint32) (h uint16, w uint32, ok bool) {
	w = b + 0xfff + (b>>13)&1
	h = uint16(w>>16)&0x8000 | uint16((w&0x7fffffff)>>13-112<<10)
	return h, w &^ 0x1fff, (b>>23)&0xff-113 < 29
}

// FP16BitsToFloat32 is the exact inverse widening: every binary16 value
// converts to float32 without error.
//
//kylix:hotpath
func FP16BitsToFloat32(h uint16) float32 {
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

// widenFP16 widens a normal half (exponent 1..30) by a shift and a
// rebiasing add. ok reports whether h is normal.
//
//kylix:hotpath
func widenFP16(h uint16) (w uint32, ok bool) {
	return uint32(h&0x8000)<<16 | (uint32(h&0x7fff)<<13 + 112<<23), (h>>10)&0x1f-1 < 30
}

// QuantizeFP16 encodes vals into dst as little-endian binary16, fusing
// error feedback when res is non-nil: each element quantizes
// x = vals[j] + res[j] and stores the rounding error back into res[j].
// len(dst) must be 2*len(vals); res, when present, aligns with vals.
// vals is never written.
//
//kylix:hotpath
func QuantizeFP16(dst []byte, vals, res []float32) {
	if len(vals) == 0 {
		return
	}
	_ = dst[2*len(vals)-1]
	if res == nil {
		for j, v := range vals {
			binary.LittleEndian.PutUint16(dst[j*2:], Float32ToFP16Bits(v))
		}
		return
	}
	res = res[:len(vals)]
	for j, v := range vals {
		x := v + res[j]
		h, w, ok := narrowFP16(math.Float32bits(x))
		if !ok {
			h = Float32ToFP16Bits(x)
			w = math.Float32bits(FP16BitsToFloat32(h))
		}
		binary.LittleEndian.PutUint16(dst[j*2:], h)
		res[j] = x - math.Float32frombits(w)
	}
}

// DequantizeFP16 decodes a binary16 block into dst.
// len(src) must be 2*len(dst).
//
//kylix:hotpath
func DequantizeFP16(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[2*len(dst)-1]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		s, d := src[j*2:j*2+8:j*2+8], dst[j:j+4:j+4]
		w0, ok0 := widenFP16(binary.LittleEndian.Uint16(s[0:]))
		w1, ok1 := widenFP16(binary.LittleEndian.Uint16(s[2:]))
		w2, ok2 := widenFP16(binary.LittleEndian.Uint16(s[4:]))
		w3, ok3 := widenFP16(binary.LittleEndian.Uint16(s[6:]))
		d[0], d[1], d[2], d[3] = math.Float32frombits(w0), math.Float32frombits(w1), math.Float32frombits(w2), math.Float32frombits(w3)
		if !(ok0 && ok1 && ok2 && ok3) { // a half that is not normal
			for i := range d {
				d[i] = FP16BitsToFloat32(binary.LittleEndian.Uint16(s[2*i:]))
			}
		}
	}
	for ; j < len(dst); j++ {
		dst[j] = FP16BitsToFloat32(binary.LittleEndian.Uint16(src[j*2:]))
	}
}

// QuantizeINT8 encodes vals into dst with per-block max-abs scaling: a
// 4-byte float32 scale (maxabs/127) followed by one signed byte per
// value, q = trunc(fl(x/scale ± 0.5)) clamped to [-127, 127] (see the
// package doc). Error feedback fuses as in QuantizeFP16 when res is
// non-nil. len(dst) must be 4+len(vals); vals is never written. Rounding
// is a pure function of the input bits (NaN quantizes to 0), so the
// encoding is deterministic for every input.
//
//kylix:hotpath
func QuantizeINT8(dst []byte, vals, res []float32) {
	n := len(vals)
	if res == nil {
		quantizeINT8Slow(dst, vals, res)
		return
	}
	res = res[:n]
	// Max-abs by integer compare (a NaN's bits lie above every finite
	// value's); signs collects the sign bits.
	var m0, m1, m2, m3, signs uint32
	j := 0
	for ; j+4 <= n; j += 4 {
		s, r := vals[j:j+4:j+4], res[j:j+4:j+4]
		b0, b1, b2, b3 := math.Float32bits(s[0]+r[0]), math.Float32bits(s[1]+r[1]), math.Float32bits(s[2]+r[2]), math.Float32bits(s[3]+r[3])
		signs |= b0 | b1 | b2 | b3
		m0, m1, m2, m3 = max(m0, b0&^(1<<31)), max(m1, b1&^(1<<31)), max(m2, b2&^(1<<31)), max(m3, b3&^(1<<31))
	}
	for ; j < n; j++ {
		b := math.Float32bits(vals[j] + res[j])
		signs, m0 = signs|b, max(m0, b&^(1<<31))
	}
	maxbits := max(m0, m1, m2, m3)
	scale := math.Float32frombits(maxbits) / 127
	inv := 1 / scale
	if maxbits >= 0x7f800000 || inv > math.MaxFloat32 { // Inf or NaN, or scale 0 or too small to invert
		quantizeINT8Slow(dst, vals, res)
		return
	}
	binary.LittleEndian.PutUint32(dst, math.Float32bits(scale))
	q := dst[4 : 4+n : 4+n]
	// |x*inv| < 127.5 (finite inv: scale off by < 5e-7), so no clamp or
	// compare; k = trunc(fl(x*inv + copysign(0.5, x))) fuses as the slow path's.
	if signs>>31 == 0 { // no sign bit set: the copysign is 0.5
		for j, v := range vals {
			x := v + res[j]
			k := int32(x*inv + 0.5)
			q[j] = byte(k)
			res[j] = x - float32(k)*scale
		}
		return
	}
	for j, v := range vals {
		x := v + res[j]
		k := int32(x*inv + math.Float32frombits(math.Float32bits(x)&(1<<31)|0x3f000000))
		q[j] = byte(k)
		res[j] = x - float32(k)*scale
	}
}

// quantizeINT8Slow is QuantizeINT8 by compares, for any block: the path
// for Inf, NaN, an all-zero block, an uninvertible scale, or no feedback.
func quantizeINT8Slow(dst []byte, vals, res []float32) {
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
			q[j] = byte(quantInt8(v * inv))
		}
		return
	}
	for j, v := range vals {
		x := v + res[j]
		k := quantInt8(x * inv)
		q[j] = byte(k)
		res[j] = x - float32(k)*scale
	}
}

// quantInt8 rounds r to the nearest integer in [-127, 127], ties away
// from zero, NaN to 0. Every branch is a float32 compare, so the result
// is deterministic for all inputs (no implementation-defined
// float-to-int conversion is ever reached out of range).
func quantInt8(r float32) int8 {
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

func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// DequantizeINT8 decodes a max-abs-scaled int8 block into dst.
// len(src) must be 4+len(dst). The byte -128 is accepted (a hostile
// encoder could ship it) and decodes as -128*scale.
//
//kylix:hotpath
func DequantizeINT8(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[4+len(dst)-1]
	scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
	q := src[4 : 4+len(dst) : 4+len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		s := q[j : j+4 : j+4]
		d := dst[j : j+4 : j+4]
		d[0] = float32(int8(s[0])) * scale
		d[1] = float32(int8(s[1])) * scale
		d[2] = float32(int8(s[2])) * scale
		d[3] = float32(int8(s[3])) * scale
	}
	for ; j < len(dst); j++ {
		dst[j] = float32(int8(q[j])) * scale
	}
}

// Quantize dispatches to the mode's encode kernel. dst must hold
// QuantizedSize(q, len(vals)) bytes; res, when non-nil, is the caller's
// error-feedback residual aligned with vals. QuantOff is not a valid
// mode here — raw blocks ship as comm.Floats without a codec pass.
//
//kylix:hotpath
func Quantize(q Quantization, dst []byte, vals, res []float32) {
	switch q {
	case QuantFP16:
		QuantizeFP16(dst, vals, res)
	case QuantINT8:
		QuantizeINT8(dst, vals, res)
	default:
		panic("sparse: Quantize called with mode " + q.String())
	}
}

// Dequantize dispatches to the mode's decode kernel. len(src) must be
// QuantizedSize(q, len(dst)).
//
//kylix:hotpath
func Dequantize(q Quantization, dst []float32, src []byte) {
	switch q {
	case QuantFP16:
		DequantizeFP16(dst, src)
	case QuantINT8:
		DequantizeINT8(dst, src)
	default:
		panic("sparse: Dequantize called with mode " + q.String())
	}
}

// ValuesDigest is a 64-bit FNV-1a fingerprint of a value vector's exact
// bit pattern — the value-level counterpart of Config.Digest. Two runs
// whose digests agree produced bit-identical results; the chaos suite
// uses it to prove quantized reductions are deterministic even though
// they are no longer bit-equal to the unquantized oracle.
func ValuesDigest(vals []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vals {
		b := math.Float32bits(v)
		h = (h ^ uint64(b&0xff)) * prime64
		h = (h ^ uint64(b>>8&0xff)) * prime64
		h = (h ^ uint64(b>>16&0xff)) * prime64
		h = (h ^ uint64(b>>24)) * prime64
	}
	return h
}
