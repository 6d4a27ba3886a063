package comm

import (
	"encoding/binary"
	"fmt"

	"kylix/internal/sparse"
)

// wireQVals is the discriminator of the quantized value payload (13 is
// retired; see payload.go).
const wireQVals = 14

// maxQuantVals bounds the decoded element count of one quantized block,
// mirroring the index codec's maxCompressedKeys guard: a hostile 6-byte
// header must not demand gigabytes of decode buffer.
const maxQuantVals = 1 << 26

// QVals carries a lossily encoded value block (reduce and gather passes
// under WithQuantization): the sparse.Quantization mode, the element
// count, and the mode's packed bytes — 2 per value for fp16, a 4-byte
// scale plus 1 per value for int8. The encoding is produced by the
// sparse quantization kernels on the sender; receivers dequantize on
// arrival. Data is already wire-format, so encode/decode are a header
// plus a copy, and re-encoding a decoded payload is trivially
// byte-identical (the canonical-encoding property the transports'
// memoization relies on).
//
// Like the Floats headers in the reduction arena, QVals values are
// reused round over round: Data's contents must stay untouched until
// the receiver has read them, which core's arena argues per direction
// of the piece (see core's Scratch documentation).
type QVals struct {
	// Mode is the sparse.Quantization the block was encoded with
	// (QuantFP16 or QuantINT8; QuantOff blocks ship as Floats).
	Mode sparse.Quantization
	// N is the number of float32 values the block decodes to.
	N int
	// Data is the packed encoding, exactly
	// sparse.QuantizedSize(Mode, N) bytes.
	Data []byte
	// home is the pool a receiving transport decoded this block from, nil
	// for every other QVals; see Release.
	home *RecvPool
}

// Clone implements Payload.
func (p *QVals) Clone() Payload {
	return &QVals{Mode: p.Mode, N: p.N, Data: append([]byte(nil), p.Data...)}
}

// WireSize implements Payload. The encoding is
// disc, mode, uvarint(n), data — cheap enough to size directly, no memo.
func (p *QVals) WireSize() int {
	return 2 + uvarintLen(uint64(p.N)) + len(p.Data)
}

// AppendTo implements Payload.
func (p *QVals) AppendTo(buf []byte) []byte {
	buf = append(buf, wireQVals, byte(p.Mode))
	buf = binary.AppendUvarint(buf, uint64(p.N))
	return append(buf, p.Data...)
}

// RawWireSize implements RawSizer: what the same block costs as an
// uncompressed Floats payload, so traffic accounting exposes the value
// codec's compression ratio alongside the index codec's.
func (p *QVals) RawWireSize() int { return 1 + 4 + 4*p.N }

// decodeQVals parses the bytes after the wireQVals discriminator. The
// mode must be a defined lossy mode, the count is capped, and the data
// length must match the mode's exact size — a hostile or truncated
// stream errors rather than yielding a block that would re-encode
// differently. A recycled header has all three fields set anew.
//
//kylix:hotpath
func (rp *RecvPool) decodeQVals(buf []byte) (Payload, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("comm: truncated qvals payload")
	}
	mode := sparse.Quantization(buf[0])
	if mode != sparse.QuantFP16 && mode != sparse.QuantINT8 {
		return nil, fmt.Errorf("comm: qvals payload with mode %d", buf[0])
	}
	n, sz := sparse.Uvarint(buf[1:])
	if sz <= 0 {
		return nil, fmt.Errorf("comm: qvals payload: bad count varint")
	}
	if n > maxQuantVals {
		return nil, fmt.Errorf("comm: qvals payload claims %d values (limit %d)", n, maxQuantVals)
	}
	buf = buf[1+sz:]
	want := sparse.QuantizedSize(mode, int(n))
	if len(buf) < want {
		return nil, fmt.Errorf("comm: truncated qvals payload (%d data bytes, want %d)", len(buf), want)
	}
	q := rp.qvals(want)
	q.Mode, q.N = mode, int(n)
	copy(q.Data, buf)
	return q, nil
}
