package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"kylix/internal/sparse"
)

// Payload is a typed message body. In-memory transports pass Payloads by
// reference (zero copy); the TCP transport encodes them with the
// self-describing wire format below. WireSize is also what the event
// sink (Observer) is charged, so both transports account identical byte
// volumes.
type Payload interface {
	// WireSize is the encoded size in bytes, excluding the frame header.
	WireSize() int
	// AppendTo appends the wire encoding to buf and returns it.
	AppendTo(buf []byte) []byte
	// Clone returns a deep copy sharing no memory with the receiver.
	// Layers that fan one payload out to several in-process receivers
	// with independent lifetimes (the replica layer) clone first, so a
	// sender reusing its buffers cannot corrupt a slow receiver's copy.
	Clone() Payload
}

// RawSizer is implemented by payloads whose wire encoding compresses
// its content: index-set payloads (compressed key codec) and quantized
// value blocks (fp16/int8 value codec). RawWireSize reports what the
// same payload would cost in the uncompressed format — 8 bytes per key,
// 4 bytes per float32 value — so traffic accounting can expose
// raw-vs-encoded compression ratios per layer.
type RawSizer interface {
	RawWireSize() int
}

// RawWireSize returns p's size in the uncompressed wire format: the
// RawSizer value for compressed payloads, WireSize for everything else
// (raw value payloads are not compressed, so the two coincide).
func RawWireSize(p Payload) int {
	if rs, ok := p.(RawSizer); ok {
		return rs.RawWireSize()
	}
	return p.WireSize()
}

// Payload type discriminators on the wire. 2–4 are the fixed-width
// formats; the configuration payload's layouts 9–11, 15 and 16 live in
// payload_config.go (11's flags byte spells each direction the same
// piece as last pass, a delta against it, or in full), 12 is the
// membership control plane, and the quantized value block 14 lives in
// payload_qvals.go. Every process of a
// cluster runs the same binary and nothing persists payloads, so a
// discriminator no encoder emits (the index-set forms 1, 6, 7 and 8 and
// the stream-control form 13 of earlier versions) is simply unknown.
const (
	wireFloats   = 2
	wireKeysVals = 3
	wireBytes    = 4
)

// wireMemo caches a payload's encoded form so that WireSize (charged to
// the event sink on every transport) and AppendTo (run by the TCP
// write loop) encode at most once per payload, even when a payload is
// fanned out to many receivers. Payloads flow through fault-injecting
// transports that re-Send retained pointers from a drain goroutine, so
// the memo must be safe for concurrent first use: sync.Once guards the
// encode.
//
// size is an optional fast path preset by decoders (single-threaded,
// before the payload is shared): it answers WireSize without
// re-encoding a payload that just arrived off the wire. It is an int32
// beside the 12-byte Once so the memo adds 40 bytes to a payload header,
// not 48: the configuration pass allocates one header per message.
type wireMemo struct {
	buf  []byte
	once sync.Once
	size int32
}

// bytes returns the memoized encoding, running enc on first use.
func (m *wireMemo) bytes(enc func() []byte) []byte {
	m.once.Do(func() { m.buf = enc() })
	return m.buf
}

// wireSize returns the encoded size. Every encoding starts with a
// discriminator byte, so size 0 always means "not yet known".
func (m *wireMemo) wireSize(enc func() []byte) int {
	if n := m.size; n > 0 {
		return int(n)
	}
	return len(m.bytes(enc))
}

// Floats carries a value block (reduce and gather passes).
type Floats struct {
	Vals []float32
	// home is the pool a receiving transport decoded this block from, nil
	// for every other Floats; see Release.
	home *RecvPool
}

// KeysVals carries an index set together with its values (the combined
// configure+reduce message of §III, and the bottom turnaround).
type KeysVals struct {
	Keys sparse.Set
	Vals []float32
}

// Bytes carries opaque application data.
type Bytes struct {
	Data []byte
}

// Clone implements Payload.
func (p *Floats) Clone() Payload {
	return &Floats{Vals: append([]float32(nil), p.Vals...)}
}

// Clone implements Payload.
func (p *KeysVals) Clone() Payload {
	return &KeysVals{Keys: p.Keys.Clone(), Vals: append([]float32(nil), p.Vals...)}
}

// Clone implements Payload.
func (p *Bytes) Clone() Payload {
	return &Bytes{Data: append([]byte(nil), p.Data...)}
}

// WireSize implements Payload.
func (p *Floats) WireSize() int { return 1 + 4 + 4*len(p.Vals) }

// AppendTo implements Payload.
func (p *Floats) AppendTo(buf []byte) []byte {
	buf = slices.Grow(buf, p.WireSize())
	buf = append(buf, wireFloats)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vals)))
	return appendFloats(buf, p.Vals)
}

// appendFloats appends vals as little-endian float32 bits, growing buf
// at most once.
func appendFloats(buf []byte, vals []float32) []byte {
	at := len(buf)
	buf = slices.Grow(buf, 4*len(vals))[:at+4*len(vals)]
	putFloats(buf[at:], vals)
	return buf
}

// putFloats fills dst, 4*len(vals) bytes, with vals as little-endian
// float32 bits — four values a step through windows of fixed size, which
// the compiler bounds-checks once each instead of once per value.
//
//kylix:hotpath
func putFloats(dst []byte, vals []float32) {
	dst = dst[:4*len(vals)]
	n := len(vals) &^ 3
	for i := 0; i < n; i += 4 {
		d, v := dst[4*i:4*i+16:4*i+16], vals[i:i+4:i+4]
		binary.LittleEndian.PutUint32(d[0:4], math.Float32bits(v[0]))
		binary.LittleEndian.PutUint32(d[4:8], math.Float32bits(v[1]))
		binary.LittleEndian.PutUint32(d[8:12], math.Float32bits(v[2]))
		binary.LittleEndian.PutUint32(d[12:16], math.Float32bits(v[3]))
	}
	for i := n; i < len(vals); i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(vals[i]))
	}
}

// getFloats is putFloats read backwards: it fills vals from the first
// 4*len(vals) bytes of src.
func getFloats(vals []float32, src []byte) {
	src = src[:4*len(vals)]
	n := len(vals) &^ 3
	for i := 0; i < n; i += 4 {
		s, v := src[4*i:4*i+16:4*i+16], vals[i:i+4:i+4]
		v[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:4]))
		v[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:8]))
		v[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:12]))
		v[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:16]))
	}
	for i := n; i < len(vals); i++ {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// WireSize implements Payload.
func (p *KeysVals) WireSize() int { return 1 + 4 + 4 + 8*len(p.Keys) + 4*len(p.Vals) }

// AppendTo implements Payload.
func (p *KeysVals) AppendTo(buf []byte) []byte {
	buf = append(buf, wireKeysVals)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Keys)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vals)))
	for _, k := range p.Keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	return appendFloats(buf, p.Vals)
}

// WireSize implements Payload.
func (p *Bytes) WireSize() int { return 1 + 4 + len(p.Data) }

// AppendTo implements Payload.
func (p *Bytes) AppendTo(buf []byte) []byte {
	buf = append(buf, wireBytes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
	return append(buf, p.Data...)
}

// DecodePayload parses a wire-encoded payload produced by AppendTo into
// memory of its own: the one decoder, RecvPool.Decode, over no pool.
func DecodePayload(buf []byte) (Payload, error) { return (*RecvPool)(nil).Decode(buf) }

// Decode is DecodePayload for a receiving transport: the value blocks
// (Floats, QVals) land in buffers recycled through rp and go back to it
// by Release; every other payload, which its receiver retains or never
// releases, is allocated as ever. A nil pool allocates everything.
func (rp *RecvPool) Decode(buf []byte) (Payload, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("comm: empty payload")
	}
	kind, buf := buf[0], buf[1:]
	readU32 := func() (uint32, error) {
		if len(buf) < 4 {
			return 0, fmt.Errorf("comm: truncated payload")
		}
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		return v, nil
	}
	switch kind {
	case wireFloats:
		return rp.decodeFloats(buf)
	case wireKeysVals:
		nk, err := readU32()
		if err != nil {
			return nil, err
		}
		nv, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(nk)*8+int(nv)*4 {
			return nil, fmt.Errorf("comm: truncated keysvals payload")
		}
		keys := make(sparse.Set, nk)
		for i := range keys {
			keys[i] = sparse.Key(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		vals := make([]float32, nv)
		getFloats(vals, buf[nk*8:])
		return &KeysVals{Keys: keys, Vals: vals}, nil
	case wireBytes:
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(n) {
			return nil, fmt.Errorf("comm: truncated bytes payload")
		}
		data := make([]byte, n)
		copy(data, buf)
		return &Bytes{Data: data}, nil
	case wireControl:
		return decodeControlPayload(buf)
	case wireQVals:
		return rp.decodeQVals(buf)
	default:
		return decodeConfigPayload(kind, buf)
	}
}

// decodeFloats parses the bytes after the wireFloats discriminator.
//
//kylix:hotpath
func (rp *RecvPool) decodeFloats(buf []byte) (Payload, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("comm: truncated payload")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if buf = buf[4:]; len(buf) < n*4 {
		return nil, fmt.Errorf("comm: truncated floats payload")
	}
	f := rp.floats(n)
	getFloats(f.Vals, buf)
	return f, nil
}
