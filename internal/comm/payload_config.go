package comm

import (
	"encoding/binary"
	"fmt"

	"kylix/internal/sparse"
)

// Additional wire discriminators (continuing payload.go's space): the
// five layouts of the configuration payload, whose index sets are
// encoded with sparse.AppendCompressed.
const (
	wireConfig        = 9  // ConfigPiece: both pieces
	wireConfigVals    = 10 // ConfigPiece: both pieces + values
	wireConfigSame    = 11 // ConfigPiece: flags byte + the pieces not marked same
	wireConfigSym     = 15 // ConfigPiece: one piece, both directions
	wireConfigSymVals = 16 // ConfigPiece: one piece, both directions + values
)

// ConfigPiece is the one message of the configuration plane: what a
// machine sends a layer-group member in Configure, ConfigureReduce and
// Reconfigure alike. It carries the member's piece of the sender's in
// and out index sets (§III-A sends both partitions together), each
// replaceable by a same marker when it is the piece the previous pass
// over the same Config sent — the receiver merged that one into its
// union and can read it back — and optionally the out piece's values
// (the fused configure+reduce pass that §III recommends for minibatch
// workloads).
//
// The wire layout is a function of the content alone: both pieces
// (discriminator 9), both pieces and values (10), one piece standing for
// equal in and out pieces (15), the same with values (16), or — only
// when a marker is set — a flags byte and the pieces not marked same
// (11), so an all-same payload costs two bytes. A symmetric piece
// decodes with Out aliasing In. There is no layout for values beside a
// marker: values are never kept from pass to pass, so a piece that
// carries them is never "the same", and encoding such a payload panics.
type ConfigPiece struct {
	// In/Out are the pieces for the directions not marked same (nil
	// otherwise).
	In, Out sparse.Set
	// InSame/OutSame mark directions whose piece is identical to the one
	// sent in the previous pass over this Config.
	InSame, OutSame bool
	// HasVals says the payload carries Vals, Width values per key of Out
	// (possibly none: an empty out piece still ships its zero values).
	HasVals bool
	Vals    []float32

	memo wireMemo
}

// Clone implements Payload. Equal pieces stay one list, as the decoder
// leaves them, so the receiver of a clone sees them alias.
func (p *ConfigPiece) Clone() Payload {
	q := &ConfigPiece{
		In:      p.In.Clone(),
		InSame:  p.InSame,
		OutSame: p.OutSame,
		HasVals: p.HasVals,
		Vals:    append([]float32(nil), p.Vals...),
	}
	if q.Out = q.In; !p.Out.Equal(p.In) {
		q.Out = p.Out.Clone()
	}
	return q
}

// encodeSets encodes the immutable part of the payload: everything but
// the values. Vals deliberately stays out of the memo — the fused pass
// points Vals at value buffers the caller may overwrite after the
// round, and traffic accounting can touch a retained payload later
// (fault-injecting transports re-Send held pointers), so the memoized
// bytes must never read Vals. Its wire cost is pure arithmetic anyway.
func (p *ConfigPiece) encodeSets() []byte {
	var buf []byte
	switch {
	case p.InSame || p.OutSame:
		if p.HasVals {
			panic("comm: ConfigPiece cannot carry values beside a same-marker")
		}
		var flags byte
		if p.InSame {
			flags |= 1
		}
		if p.OutSame {
			flags |= 2
		}
		buf = []byte{wireConfigSame, flags}
	case p.In.Equal(p.Out): // O(1) when they alias; exits at the first difference
		buf = []byte{wireConfigSym}
		if p.HasVals {
			buf[0] = wireConfigSymVals
		}
		return sparse.AppendCompressed(buf, p.In)
	case p.HasVals:
		buf = []byte{wireConfigVals}
	default:
		buf = []byte{wireConfig}
	}
	if !p.InSame {
		buf = sparse.AppendCompressed(buf, p.In)
	}
	if !p.OutSame {
		buf = sparse.AppendCompressed(buf, p.Out)
	}
	return buf
}

// WireSize implements Payload.
func (p *ConfigPiece) WireSize() int {
	n := p.memo.wireSize(p.encodeSets)
	if p.HasVals {
		n += uvarintLen(uint64(len(p.Vals))) + 4*len(p.Vals)
	}
	return n
}

// AppendTo implements Payload. The set part comes from the memo; the
// values are appended fresh, reading Vals at encode time.
func (p *ConfigPiece) AppendTo(buf []byte) []byte {
	buf = append(buf, p.memo.bytes(p.encodeSets)...)
	if p.HasVals {
		buf = appendFloats(binary.AppendUvarint(buf, uint64(len(p.Vals))), p.Vals)
	}
	return buf
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// RawWireSize implements RawSizer: the same layout with 4-byte counts,
// 8-byte keys and 4-byte values, and a symmetric piece charged as both
// partitions, as the paper's implementation ships them.
func (p *ConfigPiece) RawWireSize() int {
	n := 1
	if p.InSame || p.OutSame {
		n++
	}
	if !p.InSame {
		n += 4 + 8*len(p.In)
	}
	if !p.OutSame {
		n += 4 + 8*len(p.Out)
	}
	if p.HasVals {
		n += 4 + 4*len(p.Vals)
	}
	return n
}

// decodeConfigPayload handles the discriminators defined in this file;
// it is called from DecodePayload's default branch. The decoded payload
// has the memoized size of its set part preset (the decoder knows the
// consumed byte count), so traffic accounting on a forwarded payload
// does not re-run the codec.
func decodeConfigPayload(kind byte, buf []byte) (Payload, error) {
	whole := len(buf) + 1 // discriminator byte included
	sym := kind == wireConfigSym || kind == wireConfigSymVals
	p := &ConfigPiece{HasVals: kind == wireConfigVals || kind == wireConfigSymVals}
	switch kind {
	case wireConfig, wireConfigVals, wireConfigSym, wireConfigSymVals:
	case wireConfigSame:
		// A flags byte with no flag set is what discriminator 9 encodes;
		// accepting it would give one content two encodings.
		if len(buf) < 1 || buf[0] < 1 || buf[0] > 3 {
			return nil, fmt.Errorf("comm: bad same-marker flags in configuration payload")
		}
		p.InSame, p.OutSame = buf[0]&1 != 0, buf[0]&2 != 0
		buf = buf[1:]
	default:
		return nil, fmt.Errorf("comm: unknown payload discriminator %d", kind)
	}
	var err error
	if !p.InSame {
		if p.In, buf, err = sparse.DecodeCompressed(nil, buf); err != nil {
			return nil, err
		}
	}
	if sym {
		p.Out = p.In
	} else if !p.OutSame {
		if p.Out, buf, err = sparse.DecodeCompressed(nil, buf); err != nil {
			return nil, err
		}
		// Two equal blocks (both empty included) are what 15 and 16 spell
		// with one; accepting them would give one content two encodings.
		if !p.InSame && p.In.Equal(p.Out) {
			return nil, fmt.Errorf("comm: configuration payload spells one piece twice")
		}
	}
	p.memo.size = int32(whole - len(buf)) // everything but the values
	if p.HasVals {
		nv, sz := sparse.Uvarint(buf)
		if sz <= 0 || nv > 1<<32 {
			return nil, fmt.Errorf("comm: bad configuration value count")
		}
		buf = buf[sz:]
		if uint64(len(buf)) < nv*4 {
			return nil, fmt.Errorf("comm: truncated configuration values")
		}
		p.Vals = make([]float32, nv)
		getFloats(p.Vals, buf)
	}
	return p, nil
}
