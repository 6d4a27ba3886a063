package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func codecRoundTrip(t *testing.T, s Set) []byte {
	t.Helper()
	buf := AppendCompressed(nil, s)
	got, rest, err := DecodeCompressed(nil, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d unconsumed bytes", len(rest))
	}
	if !got.Equal(s) {
		t.Fatalf("round trip mismatch: got %d keys, want %d", len(got), len(s))
	}
	// Canonical encoder: re-encoding the decoded set is byte-identical.
	if again := AppendCompressed(nil, got); string(again) != string(buf) {
		t.Fatalf("re-encode not byte-identical")
	}
	return buf
}

func TestCodecEdgeCases(t *testing.T) {
	dense := make([]int32, 10000)
	for i := range dense {
		dense[i] = int32(i + 7)
	}
	alternating := make([]int32, 0, 4096)
	for x := int32(0); len(alternating) < 4096; x += 2 + x%3 {
		alternating = append(alternating, x)
	}
	cases := []struct {
		name string
		idx  []int32
		// maxBytes, when >0, asserts a compression bound.
		maxBytes int
	}{
		{"empty", nil, 1},
		{"single key", []int32{12345}, 0},
		{"single zero", []int32{0}, 2},
		{"max index", []int32{math.MaxInt32}, 0},
		{"min and max", []int32{0, math.MaxInt32}, 0},
		{"long dense run", dense, 16}, // ~10k keys in a handful of bytes
		{"adversarial alternating gaps", alternating, 2 + 5 + len(alternating)},
		{"pair adjacent", []int32{41, 42}, 0},
		{"gap of two", []int32{10, 12}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := codecRoundTrip(t, MustNewSet(tc.idx))
			if tc.maxBytes > 0 && len(buf) > tc.maxBytes {
				t.Fatalf("encoded %d keys into %d bytes, want <= %d", len(tc.idx), len(buf), tc.maxBytes)
			}
		})
	}
}

func TestCodecAppendsToDst(t *testing.T) {
	a := MustNewSet([]int32{5, 9, 100})
	b := MustNewSet([]int32{6, 7, 8})
	buf := AppendCompressed(nil, a)
	buf = AppendCompressed(buf, b)
	gotA, rest, err := DecodeCompressed(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := DecodeCompressed(nil, rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !gotA.Equal(a) || !gotB.Equal(b) {
		t.Fatal("concatenated blocks did not round-trip")
	}
	// Decoding into a non-empty dst appends after the existing keys.
	combined, _, err := DecodeCompressed(gotA, AppendCompressed(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != len(a)+len(b) {
		t.Fatalf("append decode produced %d keys", len(combined))
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	valid := AppendCompressed(nil, MustNewSet([]int32{1, 2, 3, 100, 2000}))
	cases := map[string][]byte{
		"empty input":     {},
		"truncated count": {0x80},
		"missing first":   {5},
		"truncated token": valid[:len(valid)-1],
		"empty run token": {2, 0, 1},
		"run overflow":    {2, 0, 9},                      // run of 4 but count says 2
		"count too large": {0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // ~34e9 keys
	}
	// Index overflow: first = MaxInt32, then a gap token pushes past it.
	overflow := AppendCompressed(nil, MustNewSet([]int32{math.MaxInt32}))
	overflow[0] = 2                // claim two keys
	overflow = append(overflow, 0) // gap of 2 beyond MaxInt32
	cases["index overflow"] = overflow
	for name, buf := range cases {
		if _, _, err := DecodeCompressed(nil, buf); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	// Every strict prefix of a valid encoding fails or under-delivers.
	for cut := 0; cut < len(valid); cut++ {
		got, rest, err := DecodeCompressed(nil, valid[:cut])
		if err == nil && len(rest) == 0 && len(got) == 5 {
			t.Errorf("prefix %d decoded to the full set", cut)
		}
	}
}

// hugeCountBlock claims 2^26 keys (the cap) and then gives a first index
// of 2^31: nine bytes that decode to an error.
var hugeCountBlock = []byte{0x80, 0x80, 0x80, 0x20, 0x80, 0x80, 0x80, 0x80, 0x08}

// TestDecodeAllocatesWhatTheBytesYield: a block's count is the peer's
// word, so the decoder may not size anything by it before the bytes
// bear it out. A 9-byte block claiming 2^26 keys must fail having
// allocated kilobytes, not the 512 MiB the count names; a dense run, whose
// few bytes do yield many keys, still decodes.
func TestDecodeAllocatesWhatTheBytesYield(t *testing.T) {
	allocated := func(buf []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeCompressed(nil, buf)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	if n, err := allocated(hugeCountBlock); err == nil || n >= 1<<20 {
		t.Fatalf("the 9-byte block allocated %d bytes (error %v), want an error under 1 MiB", n, err)
	}
	dense := make([]int32, 100000)
	for i := range dense {
		dense[i] = int32(i)
	}
	codecRoundTrip(t, MustNewSet(dense))
}

// FuzzKeysCodec round-trips arbitrary index sets and hammers the
// decoder with arbitrary bytes. Properties: encode→decode is lossless
// against a set built by the reference sort (so the encoder's index
// sort and the decoder's key sort are both checked against
// sort.Slice), re-encode is byte-identical (canonical form), and no
// input makes the decoder panic or return an out-of-range index. The
// seeds straddle the sorts' comparison-sort floor; crafted moves the
// indices into one narrow hash band, the decoder's overfull bucket.
func FuzzKeysCodec(f *testing.F) {
	f.Add([]byte{}, []byte{}, false)
	f.Add([]byte{1, 2, 3, 4, 250, 251, 252}, []byte{2, 0, 1}, false)
	f.Add([]byte{0, 0, 0, 0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, true)
	f.Add([]byte{}, hugeCountBlock, false)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{comparisonSortBelow - 1, comparisonSortBelow, comparisonSortBelow + 1, 8 * comparisonSortBelow} {
		raw := make([]byte, 2*n)
		rng.Read(raw)
		f.Add(raw, []byte{}, false)
		f.Add(raw, []byte{}, true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, wire []byte, crafted bool) {
		// Part 1: round-trip a set derived from raw (pairs of bytes →
		// indices, occasionally stretched into dense runs).
		idx := make([]int32, 0, len(raw))
		for i := 0; i+1 < len(raw); i += 2 {
			base := int32(raw[i])<<8 | int32(raw[i+1])
			idx = append(idx, base)
			if raw[i]%5 == 0 { // seed a dense run
				for j := int32(1); j < int32(raw[i+1]%17); j++ {
					idx = append(idx, base+j)
				}
			}
		}
		if crafted {
			for i := 2; i < len(idx); i++ {
				idx[i] = indexWithHash(0x5A5A0000 | uint32(idx[i]))
			}
		}
		s, _, _ := refNewSet(idx)
		buf := AppendCompressed(nil, s)
		got, rest, err := DecodeCompressed(nil, buf)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(rest) != 0 || !got.Equal(s) {
			t.Fatalf("round trip mismatch (%d keys in, %d out, %d rest)", len(s), len(got), len(rest))
		}
		if again := AppendCompressed(nil, got); string(again) != string(buf) {
			t.Fatal("re-encode not canonical")
		}
		// Part 2: the decoder must survive arbitrary bytes — error or
		// valid Set, never a panic, never an invalid key, never a second
		// spelling of a set.
		got, rest, err = DecodeCompressed(nil, wire)
		if err == nil {
			if again := AppendCompressed(nil, got); string(again) != string(wire[:len(wire)-len(rest)]) {
				t.Fatalf("decoded %x, which re-encodes to %x", wire[:len(wire)-len(rest)], again)
			}
			if !got.IsSorted() {
				t.Fatal("decoder produced unsorted set from arbitrary bytes")
			}
			for _, k := range got {
				if k != MakeKey(k.Index()) {
					t.Fatal("decoder produced hash-inconsistent key")
				}
			}
		}
	})
}

// benchmarkCodecSets draws rotation sets of 4096 indices whose gaps are
// uniform on [1, density] (see rotation for why one set is not enough).
func benchmarkCodecSets(density int) (sets [rotation]Set) {
	rng := rand.New(rand.NewSource(7))
	for r := range sets {
		idx := make([]int32, 0, 4096)
		x := int32(0)
		for len(idx) < 4096 {
			x += 1 + int32(rng.Intn(density))
			idx = append(idx, x)
		}
		sets[r] = MustNewSet(idx)
	}
	return sets
}

func BenchmarkKeysCodec(b *testing.B) {
	for _, bc := range []struct {
		name    string
		density int
	}{{"dense", 1}, {"eighth", 15}, {"sparse", 200}} {
		sets := benchmarkCodecSets(bc.density)
		var encs [rotation][]byte
		raw, wire := 0, 0
		for r, s := range sets {
			encs[r] = AppendCompressed(nil, s)
			raw += 8 * len(s)
			wire += len(encs[r])
		}
		b.Run("encode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(raw / rotation))
			b.ReportAllocs()
			buf := make([]byte, 0, 8*len(sets[0]))
			for i := 0; i < b.N; i++ {
				buf = AppendCompressed(buf[:0], sets[i%rotation])
			}
			b.ReportMetric(float64(raw)/float64(wire), "compression-x")
		})
		b.Run("decode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(raw / rotation))
			b.ReportAllocs()
			dst := make(Set, 0, len(sets[0]))
			for i := 0; i < b.N; i++ {
				var err error
				dst, _, err = DecodeCompressed(dst[:0], encs[i%rotation])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
