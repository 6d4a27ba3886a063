package comm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"kylix/internal/sparse"
)

// TestDecodeRandomBytesNeverPanics hammers DecodePayload with random
// byte strings: arbitrary input must produce an error or a payload,
// never a panic or an out-of-bounds read. (The TCP transport feeds
// DecodePayload straight from the network.)
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		if trial%3 == 0 && n > 0 {
			// Bias toward valid discriminators so deeper paths run
			// (1-16 covers every assigned payload type, including the
			// quantized value block and the symmetric config layouts).
			buf[0] = byte(1 + rng.Intn(16))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodePayload panicked on %v: %v", buf, r)
				}
			}()
			_, _ = DecodePayload(buf)
		}()
	}
}

func keys32(raw []uint16) []int32 {
	out := make([]int32, len(raw))
	for i, r := range raw {
		out[i] = int32(r)
	}
	return out
}

// TestEncodeDecodeQuick round-trips randomized payloads of every type.
func TestEncodeDecodeQuick(t *testing.T) {
	toSet := func(raw []uint16) sparse.Set {
		idx := make([]int32, len(raw))
		for i, r := range raw {
			idx[i] = int32(r)
		}
		return sparse.MustNewSet(idx)
	}
	f := func(keysRaw []uint16, vals []float32, data []byte) bool {
		keys := toSet(keysRaw)
		qf := &QVals{Mode: sparse.QuantFP16, N: len(vals),
			Data: make([]byte, sparse.QuantizedSize(sparse.QuantFP16, len(vals)))}
		sparse.QuantizeFP16(qf.Data, vals, nil)
		qi := &QVals{Mode: sparse.QuantINT8, N: len(vals),
			Data: make([]byte, sparse.QuantizedSize(sparse.QuantINT8, len(vals)))}
		sparse.QuantizeINT8(qi.Data, vals, nil)
		payloads := []Payload{
			&ConfigPiece{In: keys},
			&Floats{Vals: vals},
			&KeysVals{Keys: keys, Vals: vals},
			&Bytes{Data: data},
			&ConfigPiece{In: keys, Out: keys},
			&ConfigPiece{In: keys, Out: keys, HasVals: true, Vals: vals},
			&ConfigPiece{InSame: true, Out: keys},
			&ConfigPiece{In: keys, OutSame: true},
			&ConfigPiece{InSame: true, OutSame: true},
			&ConfigPiece{InDelta: &PieceDelta{Removed: []int32{0, 2}, Added: keys, Len: len(keys) + 3}, Out: keys},
			&ConfigPiece{InSame: true, OutDelta: &PieceDelta{Removed: []int32{1}, Added: keys, Len: len(keys) + 2}},
			&ConfigPiece{InDelta: &PieceDelta{Removed: []int32{0}, Added: keys, Len: len(keys) + 2}, OutDelta: &PieceDelta{Removed: []int32{3}, Len: 9}},
			&Control{Op: 1, Epoch: uint64(len(vals)), Leader: 3,
				Members: keys32(keysRaw), Degrees: []int32{2, 2},
				PropEpoch: uint64(len(data)), PropMembers: keys32(keysRaw),
				Ack: 7, Clock: int64(len(keysRaw)), Echo: 9},
			qf, qi,
			&QVals{Mode: sparse.QuantFP16, N: 0, Data: []byte{}},
		}
		for _, p := range payloads {
			buf := p.AppendTo(nil)
			if len(buf) != p.WireSize() {
				return false
			}
			q, err := DecodePayload(buf)
			if err != nil {
				return false
			}
			if q.WireSize() != p.WireSize() {
				return false
			}
			// Re-encoding the decoded payload is byte-identical.
			buf2 := q.AppendTo(nil)
			if string(buf) != string(buf2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFloatsByteOrderPaths: the raw-float codec's memory copy, the path
// of a little-endian host, and its per-value loop, the path of a
// big-endian one, write and read the same wire bytes. (The test flips
// the host's byte order flag, so it must not run in parallel.)
func TestFloatsByteOrderPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float32, 67)
	for i := range vals {
		vals[i] = math.Float32frombits(rng.Uint32())
	}
	defer func(le bool) { littleEndian = le }(littleEndian)
	var wire [2][]byte
	for i, le := range []bool{true, false} {
		littleEndian = le
		wire[i] = (&Floats{Vals: vals}).AppendTo(nil)
		got := make([]float32, len(vals))
		getFloats(got, wire[i][5:])
		if !bytes.Equal((&Floats{Vals: got}).AppendTo(nil), wire[0]) {
			t.Fatalf("littleEndian=%v: floats do not round-trip", le)
		}
	}
	if !bytes.Equal(wire[0], wire[1]) {
		t.Fatal("the memory copy and the per-value loop write different bytes")
	}
}

// TestTruncationAlwaysErrors verifies every strict prefix of a valid
// encoding fails to decode (no silent short reads).
func TestTruncationAlwaysErrors(t *testing.T) {
	keys := sparse.MustNewSet([]int32{1, 2, 3, 100})
	p := &ConfigPiece{In: keys, Out: keys, HasVals: true, Vals: []float32{1, 2, 3, 4}}
	buf := p.AppendTo(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodePayload(buf[:cut]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", cut)
		}
	}
}

// hugeCountPayloads are configuration payloads that claim close to 2^26
// entries in a few bytes and then fail: an 11-byte payload that opens
// with the five bytes of the one a fuzzer first found (a fused piece
// claiming 65,549,915 keys), a 9-byte block after the both-pieces
// discriminator, and a delta claiming 2^26 removed positions.
var hugeCountPayloads = [][]byte{
	{wireConfigVals, 0xdb, 0xec, 0xa0, 0x1f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	{wireConfig, 0x80, 0x80, 0x80, 0x20, 0x80, 0x80, 0x80, 0x80, 0x08},
	{wireConfigSame, flagInDelta, 0x80, 0x80, 0x80, 0x20, 0x80, 0x80, 0x80, 0x20, 0x01, 0x01, 0x01},
}

// TestDecodeAllocatesWhatTheBytesYield: any TCP peer can send these in a
// configuration frame, so decoding one must fail having allocated
// kilobytes, not the half gigabyte its count names.
func TestDecodeAllocatesWhatTheBytesYield(t *testing.T) {
	for _, data := range hugeCountPayloads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodePayload(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
			t.Errorf("decoding %x allocated %d bytes (error %v), want an error under 1 MiB", data, n, err)
		}
	}
}

// FuzzDecodePayload feeds the decoder arbitrary bytes — the TCP
// transport hands it whatever a peer sent. It must never panic, and
// every encoding is canonical: whatever decodes re-encodes to exactly
// the bytes the decoder consumed (a decoder may ignore what follows),
// so one content never has two spellings for the transports'
// encode-once memo or the wire pins to disagree about. Every input is
// decoded twice, into fresh memory and through a pool of dirty recycled
// buffers, and the two must not differ in payload, error or re-encoding:
// nothing stale survives in what the pool hands out.
func FuzzDecodePayload(f *testing.F) {
	keys := sparse.MustNewSet([]int32{3, 4, 5, 9, 200, 70000})
	fp16 := &QVals{Mode: sparse.QuantFP16, N: 3, Data: make([]byte, sparse.QuantizedSize(sparse.QuantFP16, 3))}
	int8s := &QVals{Mode: sparse.QuantINT8, N: 3, Data: make([]byte, sparse.QuantizedSize(sparse.QuantINT8, 3))}
	delta := &PieceDelta{Removed: []int32{0, 4}, Added: keys[2:3], Len: 5}
	for _, p := range []Payload{
		&Floats{Vals: []float32{1, -2.5}},
		&KeysVals{Keys: keys, Vals: []float32{1, 2, 3, 4, 5, 6}},
		&Bytes{Data: []byte("abc")},
		&ConfigPiece{In: keys},
		&ConfigPiece{In: keys, Out: keys[:2]},
		&ConfigPiece{In: keys, Out: keys[:2], HasVals: true, Vals: []float32{7, 8}},
		&ConfigPiece{InSame: true, Out: keys},
		&ConfigPiece{In: keys, OutSame: true},
		&ConfigPiece{InSame: true, OutSame: true},
		&ConfigPiece{In: keys, Out: keys},
		&ConfigPiece{In: keys[:2], Out: keys[:2], HasVals: true, Vals: []float32{7, 8}},
		&ConfigPiece{InDelta: delta, Out: keys},
		&ConfigPiece{In: keys, OutDelta: delta},
		&ConfigPiece{InDelta: delta, OutDelta: delta},
		&ConfigPiece{InDelta: delta, OutDelta: &PieceDelta{Removed: []int32{1}, Len: 5}},
		&ConfigPiece{InSame: true, OutDelta: delta},
		&ConfigPiece{InDelta: delta, OutSame: true},
		&Control{Op: 1, Epoch: 2, Members: []int32{0, 1}, Degrees: []int32{2}},
		fp16, int8s,
	} {
		f.Add(p.AppendTo(nil))
	}
	block := sparse.AppendCompressed(nil, keys)
	f.Add(append(append([]byte{9}, block...), block...)) // one piece spelled twice: what 15 encodes
	f.Add([]byte{})
	f.Add([]byte{1, 5})                       // a discriminator no encoder emits
	f.Add([]byte{11, 0, 0, 0})                // same-marker layout with no marker set
	f.Add([]byte{11, 5, 0})                   // undefined flag: in both same and a delta
	f.Add([]byte{9, 0x80, 0, 0})              // padded varint
	f.Add([]byte{9, 3, 1, 3, 3, 0})           // one run of two spelled as two runs
	f.Add([]byte{10, 0, 0, 1, 0, 0, 0, 0, 9}) // trailing byte
	// What the retired Keys payload encoded to: refused, like 1, 6 and 7.
	f.Add(sparse.AppendCompressed([]byte{8}, keys))
	// What the retired StreamCtl payload encoded to: 13 and a 44-byte body.
	f.Add(append([]byte{13, 2}, make([]byte, 43)...))
	for _, data := range hugeCountPayloads {
		f.Add(data)
	}
	for _, tc := range refusedConfigSpellings {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err == nil && (data[0] == 1 || data[0] >= 6 && data[0] <= 8 || data[0] == 13) {
			t.Fatalf("discriminator %d no encoder emits decoded as %T", data[0], p)
		}
		pooled, perr := dirtyPool().Decode(data)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("decoding %x: %v into fresh memory, %v through a pool", data, err, perr)
		}
		if err != nil {
			return
		}
		switch v := pooled.(type) { // the home is the one difference allowed
		case *Floats:
			v.home = nil
		case *QVals:
			v.home = nil
		}
		// A NaN is not deeply equal to itself: ask only of inputs whose two
		// plain decodes are (the re-encodings below compare the bits).
		if again, _ := DecodePayload(data); reflect.DeepEqual(again, p) && !reflect.DeepEqual(pooled, p) {
			t.Fatalf("decoding %x: %#v through a pool, %#v without", data, pooled, p)
		}
		enc := p.AppendTo(nil)
		if penc := pooled.AppendTo(nil); !bytes.Equal(penc, enc) {
			t.Fatalf("%T decoded from %x re-encodes to %x through a pool, %x without", p, data, penc, enc)
		}
		if len(enc) != p.WireSize() {
			t.Fatalf("%T: WireSize %d, encoded %d bytes", p, p.WireSize(), len(enc))
		}
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("%T decoded from %x re-encodes to %x", p, data, enc)
		}
	})
}
