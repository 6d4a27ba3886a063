package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"kylix/internal/sparse"
)

// Additional wire discriminators (continuing payload.go's space): the
// five layouts of the configuration payload, whose index sets are
// encoded with sparse.AppendCompressed. 11 alone carries markers and
// deltas, so a delta costs no layout of its own.
const (
	wireConfig        = 9  // ConfigPiece: both pieces
	wireConfigVals    = 10 // ConfigPiece: both pieces + values
	wireConfigSame    = 11 // ConfigPiece: flags byte + each direction full, as a delta, or nothing (same)
	wireConfigSym     = 15 // ConfigPiece: one piece, both directions
	wireConfigSymVals = 16 // ConfigPiece: one piece, both directions + values
)

// Layout 11's flags: a direction is the same piece, a delta or (neither)
// in full; flagSymDelta is one delta standing for both directions.
const flagInSame, flagOutSame, flagInDelta, flagOutDelta, flagSymDelta = 1, 2, 4, 8, 16

// ConfigPiece is the one message of the configuration plane: what a
// machine sends a layer-group member in Configure, ConfigureReduce and
// Reconfigure alike. It carries the member's piece of the sender's in
// and out index sets (§III-A sends both partitions together), each
// replaceable by a same marker when it is the piece the previous pass
// over the same Config sent — the receiver merged that one into its
// union and can read it back — or by a delta against that piece, and
// optionally the out piece's values (the fused configure+reduce pass
// that §III recommends for minibatch workloads).
//
// The wire layout is a function of the content alone: both pieces
// (discriminator 9), both pieces and values (10), one piece standing for
// equal in and out pieces (15), the same with values (16), or — only
// when a marker or a delta is set — a flags byte and each direction not
// marked same, in full or as its delta (11), so an all-same payload
// costs two bytes. A symmetric piece decodes with Out aliasing In, and
// equal deltas ship once and decode with OutDelta aliasing InDelta.
// There is no layout for values beside a marker or a delta: values are
// never kept from pass to pass, so a piece that carries them is never
// spelled against the last one, and encoding such a payload panics.
type ConfigPiece struct {
	// In/Out are the pieces for the directions shipped in full (nil
	// otherwise).
	In, Out sparse.Set
	// InDelta/OutDelta spell directions against the piece sent in the
	// previous pass over this Config (nil otherwise).
	InDelta, OutDelta *PieceDelta
	// InSame/OutSame mark directions whose piece is identical to the one
	// sent in the previous pass over this Config.
	InSame, OutSame bool
	// HasVals says the payload carries Vals, Width values per key of Out
	// (possibly none: an empty out piece still ships its zero values).
	HasVals bool
	Vals    []float32

	memo wireMemo
}

// PieceDelta spells a piece against the one sent in the last pass: drop
// that piece's keys at Removed (positions, strictly increasing), merge in
// Added, and Len keys result — what RawWireSize charges. On the wire it
// is uvarint(Len), uvarint(len(Removed)), the positions as uvarint gaps
// (the first from zero, every later one at least 1) and Added's block.
type PieceDelta struct {
	Removed []int32
	Added   sparse.Set
	Len     int
}

// Equal reports whether two deltas (nil being none) spell the same
// change; O(1) when they are one.
func (d *PieceDelta) Equal(e *PieceDelta) bool {
	return d == e || d != nil && e != nil && d.Len == e.Len &&
		slices.Equal(d.Removed, e.Removed) && d.Added.Equal(e.Added)
}

func (d *PieceDelta) clone() *PieceDelta {
	if d == nil {
		return nil
	}
	return &PieceDelta{Removed: slices.Clone(d.Removed), Added: d.Added.Clone(), Len: d.Len}
}

func (d *PieceDelta) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(d.Len)), uint64(len(d.Removed)))
	prev := int32(0)
	for _, pos := range d.Removed {
		buf = binary.AppendUvarint(buf, uint64(pos-prev))
		prev = pos
	}
	return sparse.AppendCompressed(buf, d.Added)
}

// Clone implements Payload. Equal pieces and equal deltas stay one list
// each, as the decoder leaves them, so the receiver of a clone sees them
// alias.
func (p *ConfigPiece) Clone() Payload {
	q := &ConfigPiece{
		In:      p.In.Clone(),
		InSame:  p.InSame,
		OutSame: p.OutSame,
		InDelta: p.InDelta.clone(),
		HasVals: p.HasVals,
		Vals:    append([]float32(nil), p.Vals...),
	}
	if q.Out = q.In; !p.Out.Equal(p.In) {
		q.Out = p.Out.Clone()
	}
	if q.OutDelta = q.InDelta; !p.OutDelta.Equal(p.InDelta) {
		q.OutDelta = p.OutDelta.clone()
	}
	return q
}

// flags is layout 11's flags byte, 0 when the payload needs another.
func (p *ConfigPiece) flags() byte {
	f := inFlag(p.InSame, p.InDelta) | inFlag(p.OutSame, p.OutDelta)<<1
	if f == flagInDelta|flagOutDelta && p.InDelta.Equal(p.OutDelta) {
		return flagSymDelta
	}
	return f
}

// inFlag is a direction's flag as the in direction's; the out
// direction's is twice it.
func inFlag(same bool, d *PieceDelta) byte {
	switch {
	case same:
		return flagInSame
	case d != nil:
		return flagInDelta
	}
	return 0
}

// encodeSets encodes the immutable part of the payload: everything but
// the values. Vals deliberately stays out of the memo — the fused pass
// points Vals at value buffers the caller may overwrite after the
// round, and traffic accounting can touch a retained payload later
// (fault-injecting transports re-Send held pointers), so the memoized
// bytes must never read Vals. Its wire cost is pure arithmetic anyway.
func (p *ConfigPiece) encodeSets() []byte {
	var buf []byte
	switch f := p.flags(); {
	case f != 0:
		if p.HasVals {
			panic("comm: ConfigPiece cannot carry values beside a same-marker or a delta")
		}
		buf = []byte{wireConfigSame, f}
		if f == flagSymDelta {
			return p.InDelta.appendTo(buf)
		}
		buf = appendDirection(buf, f&flagInSame != 0, p.InDelta, p.In)
		return appendDirection(buf, f&flagOutSame != 0, p.OutDelta, p.Out)
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
	return sparse.AppendCompressed(sparse.AppendCompressed(buf, p.In), p.Out)
}

// appendDirection appends one direction of layout 11: nothing when it is
// marked same, else its delta or its piece.
func appendDirection(buf []byte, same bool, d *PieceDelta, piece sparse.Set) []byte {
	switch {
	case same:
		return buf
	case d != nil:
		return d.appendTo(buf)
	}
	return sparse.AppendCompressed(buf, piece)
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
// 8-byte keys and 4-byte values, a symmetric piece charged as both
// partitions and a delta as the piece it spells, as the paper's
// implementation ships them.
func (p *ConfigPiece) RawWireSize() int {
	n := 1
	if p.InSame || p.OutSame {
		n++
	}
	if !p.InSame {
		n += 4 + 8*pieceLen(p.InDelta, p.In)
	}
	if !p.OutSame {
		n += 4 + 8*pieceLen(p.OutDelta, p.Out)
	}
	if p.HasVals {
		n += 4 + 4*len(p.Vals)
	}
	return n
}

// pieceLen is the length of a direction's piece, shipped or spelled.
func pieceLen(d *PieceDelta, piece sparse.Set) int {
	if d != nil {
		return d.Len
	}
	return len(piece)
}

// decodeConfigPayload handles the discriminators defined in this file;
// it is called from DecodePayload's default branch. The decoded payload
// has the memoized size of its set part preset (the decoder knows the
// consumed byte count), so traffic accounting on a forwarded payload
// does not re-run the codec.
func decodeConfigPayload(kind byte, buf []byte) (Payload, error) {
	whole := len(buf) + 1 // discriminator byte included
	p := &ConfigPiece{HasVals: kind == wireConfigVals || kind == wireConfigSymVals}
	var f byte // layout 11's flags; 0 for the others
	sym := kind == wireConfigSym || kind == wireConfigSymVals
	switch {
	case kind == wireConfigSame:
		// Each direction same, a delta or neither, not both neither (what 9
		// encodes), or the symmetric delta: any other value would give one
		// content two encodings.
		if len(buf) < 1 || !slices.Contains([]byte{1, 2, 3, 4, 6, 8, 9, 12, flagSymDelta}, buf[0]) {
			return nil, fmt.Errorf("comm: bad flags in configuration payload")
		}
		f, buf = buf[0], buf[1:]
		p.InSame, p.OutSame, sym = f&flagInSame != 0, f&flagOutSame != 0, f == flagSymDelta
	case kind != wireConfig && kind != wireConfigVals && !sym:
		return nil, fmt.Errorf("comm: unknown payload discriminator %d", kind)
	}
	var err error
	switch {
	case f&(flagInDelta|flagSymDelta) != 0:
		p.InDelta, buf, err = decodeDelta(buf)
	case !p.InSame:
		p.In, buf, err = sparse.DecodeCompressed(nil, buf)
	}
	switch {
	case err != nil:
	case sym:
		p.Out, p.OutDelta = p.In, p.InDelta
	case f&flagOutDelta != 0:
		p.OutDelta, buf, err = decodeDelta(buf)
	case !p.OutSame:
		p.Out, buf, err = sparse.DecodeCompressed(nil, buf)
	}
	if err != nil {
		return nil, err
	}
	// Two equal blocks under 9 or 10 (both empty included), or two equal
	// deltas, are what 15, 16 and flagSymDelta spell with one; accepting
	// them would give one content two encodings.
	if !sym && (f == 0 && p.In.Equal(p.Out) || p.InDelta != nil && p.InDelta.Equal(p.OutDelta)) {
		return nil, fmt.Errorf("comm: configuration payload spells one piece twice")
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

// decodeDelta parses one PieceDelta and returns the rest of buf. It
// refuses positions that do not increase, a length that puts a removed
// position past the last piece, and a delta whose removed and added
// keys number none (a marker's content) or not fewer than the length
// (the full piece's: the count rule senders spell by). The position
// count is the peer's word, so it is held to the bytes left.
func decodeDelta(buf []byte) (*PieceDelta, []byte, error) {
	n, sz := sparse.Uvarint(buf)
	nr, sz2 := sparse.Uvarint(buf[max(sz, 0):])
	if sz <= 0 || n > math.MaxInt32 || sz2 <= 0 || nr > uint64(len(buf)-sz-sz2) {
		return nil, nil, fmt.Errorf("comm: bad delta length or position count")
	}
	d, buf, pos := &PieceDelta{Len: int(n), Removed: make([]int32, nr)}, buf[sz+sz2:], uint64(0)
	for i := range d.Removed {
		gap, sz := sparse.Uvarint(buf)
		if pos += gap; sz <= 0 || gap > math.MaxInt32 || i > 0 && gap == 0 || pos > math.MaxInt32 {
			return nil, nil, fmt.Errorf("comm: delta positions not strictly increasing")
		}
		d.Removed[i], buf = int32(pos), buf[sz:]
	}
	var err error
	if d.Added, buf, err = sparse.DecodeCompressed(nil, buf); err != nil {
		return nil, nil, err
	}
	if na := uint64(len(d.Added)); nr+na == 0 || nr+na >= n || nr > 0 && n-na+nr <= pos {
		return nil, nil, fmt.Errorf("comm: delta of length %d is no delta or disagrees with its counts", d.Len)
	}
	return d, buf, nil
}
