package sparse

import (
	"fmt"
	"math"
)

// Vec is a sparse vector: Data holds Width float32 values for each key of
// Keys, laid out contiguously (Data[i*Width : (i+1)*Width] belongs to
// Keys[i]). Width > 1 supports matrix-shaped models (e.g. a factor model
// synchronizing several columns per feature) exactly as a dense stride.
type Vec struct {
	Keys  Set
	Data  []float32
	Width int
}

// NewVec allocates a zero-valued Vec over the given keys.
func NewVec(keys Set, width int) Vec {
	return Vec{Keys: keys, Data: make([]float32, len(keys)*width), Width: width}
}

// Validate checks the shape invariant.
func (v Vec) Validate() error {
	if v.Width <= 0 {
		return fmt.Errorf("sparse: Vec width %d must be positive", v.Width)
	}
	if len(v.Data) != len(v.Keys)*v.Width {
		return fmt.Errorf("sparse: Vec has %d keys, width %d, but %d values", len(v.Keys), v.Width, len(v.Data))
	}
	return nil
}

// Row returns the values for the i-th key.
func (v Vec) Row(i int) []float32 { return v.Data[i*v.Width : (i+1)*v.Width] }

// A Reducer combines the values of colliding features during the
// scatter-reduce. Combine must merge src into dst elementwise; both
// slices have the same length (a whole row or a batch of rows). Identity
// returns the value an accumulator slot starts from.
type Reducer interface {
	// Name identifies the reducer in logs and traces.
	Name() string
	// Identity is the neutral starting element.
	Identity() float32
	// Combine folds src into dst: dst[i] = op(dst[i], src[i]).
	Combine(dst, src []float32)
}

type sumReducer struct{}

func (sumReducer) Name() string      { return "sum" }
func (sumReducer) Identity() float32 { return 0 }
func (sumReducer) Combine(dst, src []float32) {
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] += s
	}
}

type maxReducer struct{}

func (maxReducer) Name() string      { return "max" }
func (maxReducer) Identity() float32 { return float32(math.Inf(-1)) }
func (maxReducer) Combine(dst, src []float32) {
	for i, s := range src {
		if s > dst[i] {
			dst[i] = s
		}
	}
}

type minReducer struct{}

func (minReducer) Name() string      { return "min" }
func (minReducer) Identity() float32 { return float32(math.Inf(1)) }
func (minReducer) Combine(dst, src []float32) {
	for i, s := range src {
		if s < dst[i] {
			dst[i] = s
		}
	}
}

// orReducer treats each float32 as a 32-bit mask and ORs them. It backs
// the HADI-style diameter estimation, whose Flajolet-Martin bitstrings
// reduce by bitwise union (Kylix §I-A2).
type orReducer struct{}

func (orReducer) Name() string      { return "or" }
func (orReducer) Identity() float32 { return 0 }
func (orReducer) Combine(dst, src []float32) {
	for i, s := range src {
		dst[i] = math.Float32frombits(math.Float32bits(dst[i]) | math.Float32bits(s))
	}
}

// Built-in reducers.
var (
	Sum Reducer = sumReducer{}
	Max Reducer = maxReducer{}
	Min Reducer = minReducer{}
	Or  Reducer = orReducer{}
)

// CombineInto folds a received value block into an accumulator through a
// position map: for each row p of src, row m[p] of dst is combined with
// it. This is the constant-time-per-element application of the f maps
// from Kylix §III-A. Rows mapped to -1 (possible only with partial maps)
// are skipped.
//
// The built-in reducers are dispatched once per call, not once per row:
// widths 1 and 4 get fully unrolled loops and every other width gets a
// fused strided loop, so the per-row cost is a map lookup and the
// arithmetic itself, with no interface call in the inner loop.
//
//kylix:hotpath
func CombineInto(red Reducer, dst []float32, m []int32, src []float32, width int) {
	switch width {
	case 1:
		combineW1(red, dst, m, src)
	case 4:
		combineW4(red, dst, m, src)
	default:
		combineStrided(red, dst, m, src, width)
	}
}

func combineW1(red Reducer, dst []float32, m []int32, src []float32) {
	// Pin src's length to the map's so the compiler proves src[p] in
	// bounds once, outside the loop, keeping the sum path at one load,
	// one bounds check (dst[q], irreducible) and one add per row.
	src = src[:len(m)]
	switch red.(type) {
	case sumReducer:
		for p, q := range m {
			if q >= 0 {
				dst[q] += src[p]
			}
		}
	case maxReducer:
		for p, q := range m {
			if q >= 0 && src[p] > dst[q] {
				dst[q] = src[p]
			}
		}
	case minReducer:
		for p, q := range m {
			if q >= 0 && src[p] < dst[q] {
				dst[q] = src[p]
			}
		}
	case orReducer:
		for p, q := range m {
			if q >= 0 {
				dst[q] = math.Float32frombits(math.Float32bits(dst[q]) | math.Float32bits(src[p]))
			}
		}
	default:
		for p, q := range m {
			if q >= 0 {
				red.Combine(dst[q:q+1], src[p:p+1])
			}
		}
	}
}

func combineW4(red Reducer, dst []float32, m []int32, src []float32) {
	switch red.(type) {
	case sumReducer:
		for p, q := range m {
			if q < 0 {
				continue
			}
			d := dst[int(q)*4 : int(q)*4+4 : int(q)*4+4]
			s := src[p*4 : p*4+4 : p*4+4]
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
		}
	default:
		combineStrided(red, dst, m, src, 4)
	}
}

func combineStrided(red Reducer, dst []float32, m []int32, src []float32, width int) {
	switch red.(type) {
	case sumReducer:
		for p, q := range m {
			if q < 0 {
				continue
			}
			d := dst[int(q)*width : (int(q)+1)*width]
			s := src[p*width : (p+1)*width]
			_ = d[len(s)-1]
			for c, v := range s {
				d[c] += v
			}
		}
	case maxReducer:
		for p, q := range m {
			if q < 0 {
				continue
			}
			d := dst[int(q)*width : (int(q)+1)*width]
			s := src[p*width : (p+1)*width]
			_ = d[len(s)-1]
			for c, v := range s {
				if v > d[c] {
					d[c] = v
				}
			}
		}
	case minReducer:
		for p, q := range m {
			if q < 0 {
				continue
			}
			d := dst[int(q)*width : (int(q)+1)*width]
			s := src[p*width : (p+1)*width]
			_ = d[len(s)-1]
			for c, v := range s {
				if v < d[c] {
					d[c] = v
				}
			}
		}
	case orReducer:
		for p, q := range m {
			if q < 0 {
				continue
			}
			d := dst[int(q)*width : (int(q)+1)*width]
			s := src[p*width : (p+1)*width]
			_ = d[len(s)-1]
			for c, v := range s {
				d[c] = math.Float32frombits(math.Float32bits(d[c]) | math.Float32bits(v))
			}
		}
	default:
		for p, q := range m {
			if q >= 0 {
				red.Combine(dst[int(q)*width:(int(q)+1)*width], src[p*width:(p+1)*width])
			}
		}
	}
}

// GatherInto extracts rows of src selected by the position map m into
// dst: row p of dst is row m[p] of src. This applies the g maps during
// the upward allgather. Rows mapped to -1 are filled with fill. Widths 1
// and 4 are unrolled; other widths use the strided copy.
//
//kylix:hotpath
func GatherInto(dst []float32, m []int32, src []float32, width int, fill float32) {
	switch width {
	case 1:
		for p, q := range m {
			if q >= 0 {
				dst[p] = src[q]
			} else {
				dst[p] = fill
			}
		}
	case 4:
		for p, q := range m {
			d := dst[p*4 : p*4+4 : p*4+4]
			if q >= 0 {
				s := src[int(q)*4 : int(q)*4+4 : int(q)*4+4]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			} else {
				d[0], d[1], d[2], d[3] = fill, fill, fill, fill
			}
		}
	default:
		for p, q := range m {
			row := dst[p*width : (p+1)*width]
			if q >= 0 {
				copy(row, src[int(q)*width:(int(q)+1)*width])
			} else {
				for c := range row {
					row[c] = fill
				}
			}
		}
	}
}

// ScatterInto places the rows of src through the position map m, which
// has no -1 entries: row m[p] of dst is row p of src. For a permutation
// it undoes GatherInto, so a caller holding the forward map never builds
// the inverse.
//
//kylix:hotpath
func ScatterInto(dst []float32, m []int32, src []float32, width int) {
	if width == 1 {
		src = src[:len(m)]
		for p, q := range m {
			dst[q] = src[p]
		}
		return
	}
	for p, q := range m {
		copy(dst[int(q)*width:(int(q)+1)*width], src[p*width:(p+1)*width])
	}
}

// Fill sets every element of data to v; +0 (all-zero bits) is a clear.
//
//kylix:hotpath
func Fill(data []float32, v float32) {
	if math.Float32bits(v) == 0 {
		clear(data)
		return
	}
	for i := range data {
		data[i] = v
	}
}
