package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Compressed index-set wire format.
//
// Raw key Sets cost 8 bytes per feature on the wire, and the hash half
// of every Key is incompressible noise. But the hash is redundant:
// hash32 is a fixed bijection, so the receiver can rebuild the exact
// Key from the 32-bit index alone. The codec therefore transmits only
// the indices, sorted by index value (not key order), delta-encoded as
// varints, with a run-length escape for the dense stretches that
// dominate the lower butterfly layers (paper Figure 4: union density
// approaches 1 toward the bottom, where consecutive indices abound).
//
// One encoded set ("block", version 1, selected by the payload
// discriminators in internal/comm) is:
//
//	block   := uvarint(n)                      // number of indices
//	           [ uvarint(first) token* ]       // present iff n > 0
//	token   := uvarint(v)
//	  v&1 == 0  →  gap:  next = prev + 2 + v>>1   // delta ≥ 2
//	  v&1 == 1  →  run:  v>>1 ≥ 1 consecutive deltas of exactly 1
//
// Blocks are self-delimiting (the count says when to stop), so payloads
// concatenate them without length prefixes. The encoding is canonical:
// runs are maximal, so two runs are never adjacent and every delta-1
// step is inside a run, and varints are minimal. The decoder refuses
// any other spelling, so re-encoding a decoded block reproduces exactly
// the bytes consumed, which the transports rely on when they memoize
// encodings and preset decoded sizes.
//
// A typical sparse piece (density ~1/8, deltas ~8) costs ~1 byte per
// index; a fully dense range costs ~10 bits total regardless of length.
// Worst case (adversarial alternating gaps under 2^7) is 1 byte per
// index — still 8x under the raw format.

// maxCompressedKeys bounds the decoded size of one block. A run token
// claims up to 2^63 indices in three bytes, so without a cap a hostile
// 4-byte message could demand gigabytes. 2^26 keys (512 MiB of Set) is
// far above any per-piece set this protocol ships; the encoder refuses
// the same bound so the two sides agree on what is representable.
const maxCompressedKeys = 1 << 26

// AppendCompressed appends the compressed encoding of s to dst and
// returns the extended buffer. s must be a valid Set (sorted by key,
// distinct indices) with at most maxCompressedKeys entries; duplicate
// indices panic rather than corrupt the stream.
//
//kylix:hotpath
func AppendCompressed(dst []byte, s Set) []byte {
	if len(s) > maxCompressedKeys {
		panic("sparse: AppendCompressed: set exceeds maxCompressedKeys")
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	if len(s) == 0 {
		return dst
	}
	// The index projection of the set, sorted by index value.
	sb := sortPool.Get().(*sortBuf)
	sb.idx = grow(sb.idx, 2*len(s))
	idx := sb.idx[:len(s)]
	or := uint32(0)
	for i, k := range s {
		idx[i] = k.Index()
		or |= uint32(k)
	}
	idx = sortIndices(idx, sb.idx[len(s):], or, sb)

	prev := idx[0]
	dst = binary.AppendUvarint(dst, uint64(uint32(prev)))
	run := uint64(0)
	for _, x := range idx[1:] {
		d := uint32(x - prev)
		prev = x
		if d == 1 {
			run++
			continue
		}
		if d == 0 {
			panic("sparse: AppendCompressed: duplicate index in Set")
		}
		if run > 0 {
			dst = binary.AppendUvarint(dst, run<<1|1)
			run = 0
		}
		dst = binary.AppendUvarint(dst, uint64(d-2)<<1)
	}
	if run > 0 {
		dst = binary.AppendUvarint(dst, run<<1|1)
	}
	sortPool.Put(sb)
	return dst
}

// Uvarint is binary.Uvarint for canonical streams: a padded encoding is
// malformed here, n == 0, like a truncated one.
func Uvarint(buf []byte) (v uint64, n int) {
	v, n = binary.Uvarint(buf)
	if padded(buf, n) {
		return 0, 0
	}
	return v, n
}

// padded reports that the n-byte varint at the head of buf ends in a
// zero group, which binary.Uvarint reads as the shorter number: a second
// spelling the canonical format does not have.
func padded(buf []byte, n int) bool { return n > 1 && buf[n-1] == 0 }

// DecodeCompressed parses one compressed block from buf, appends the
// decoded keys (in key order) to dst, and returns the extended Set and
// the unconsumed remainder of buf. The decoded keys are rebuilt with
// MakeKey, so a hostile peer cannot inject hash/index-inconsistent
// Keys. Indices beyond int32 range, empty or adjacent run tokens,
// padded varints, counts over maxCompressedKeys, and truncated streams
// all error.
//
//kylix:hotpath
func DecodeCompressed(dst Set, buf []byte) (Set, []byte, error) {
	n, sz := Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("sparse: compressed set: bad count varint")
	}
	buf = buf[sz:]
	if n == 0 {
		return dst, buf, nil
	}
	if n > maxCompressedKeys {
		return nil, nil, fmt.Errorf("sparse: compressed set claims %d keys (limit %d)", n, maxCompressedKeys)
	}
	// The stream carries indices in index order; Sets are key (hash)
	// ordered. The keys are decoded into scratch and sorted from there
	// into dst, which restores the invariant. The count is the peer's
	// word: the scratch holds what the bytes can yield — a key per byte —
	// and grows only as far as run tokens really expand.
	sb := sortPool.Get().(*sortBuf)
	defer sortPool.Put(sb)
	keys := grow(sb.keys, min(int(n), len(buf)))
	at, cur, buf, room, err := decodeTokens(keys, int(n), 0, 0, buf)
	for ; room > 0; at, cur, buf, room, err = decodeTokens(keys, int(n), at, cur, buf) {
		keys = slices.Grow(keys[:at], room-at)[:room]
	}
	if err != nil {
		return nil, nil, err
	}
	sb.keys = keys
	base := len(dst)
	dst = slices.Grow(dst, int(n))[:base+int(n)]
	sortKeysInto(dst[base:], keys, sb)
	return dst, buf, nil
}

// decodeTokens decodes the first index (at n == 0) and the tokens after
// it into keys[n:], in stream (index) order, until the block's total
// keys are in or a run token needs more room than keys has; it then
// stops ahead of the token, naming the room to regrow to: the run and
// one key per byte left after it. keys must start with min(total,
// len(buf)) entries, as many as the bytes can yield without runs.
//
//kylix:hotpath
func decodeTokens(keys []Key, total, n int, cur uint64, buf []byte) (int, uint64, []byte, int, error) {
	if n == 0 {
		first, sz := Uvarint(buf)
		if sz <= 0 || first > math.MaxInt32 {
			return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: bad first index")
		}
		keys[0] = MakeKey(int32(first))
		n, cur, buf = 1, first, buf[sz:]
	}
	for n < total {
		tok, sz := binary.Uvarint(buf) // inlined here; Uvarint would be a call per token
		if sz <= 0 || padded(buf, sz) {
			return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: truncated or padded token")
		}
		if tok&1 == 1 {
			k := tok >> 1
			if k == 0 {
				return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: empty run token")
			}
			if k > uint64(total-n) {
				return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: run overflows declared count")
			}
			if cur+k > math.MaxInt32 {
				return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: index overflows int32")
			}
			end := n + int(k)
			if room := min(total, end+len(buf)-sz); room > len(keys) {
				return n, cur, buf, room, nil
			}
			buf = buf[sz:]
			run := keys[n:end]
			for i := range run {
				run[i] = MakeKey(int32(cur + 1 + uint64(i)))
			}
			n, cur = end, cur+k
			// Runs are maximal: the next token, whose low bit is its first
			// byte's, may not be another run.
			if n < total && len(buf) > 0 && buf[0]&1 == 1 {
				return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: split run")
			}
		} else {
			buf = buf[sz:]
			cur += (tok >> 1) + 2
			if cur > math.MaxInt32 {
				return 0, 0, nil, 0, fmt.Errorf("sparse: compressed set: index overflows int32")
			}
			keys[n] = MakeKey(int32(cur))
			n++
		}
	}
	return n, cur, buf, 0, nil
}
