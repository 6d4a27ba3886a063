package comm

import (
	"encoding/binary"
	"fmt"
)

// wireControl is the discriminator of the membership control payload,
// one of those payload.go lists.
const wireControl = 12

// Control is the membership control plane's gossip message: every field
// is epoch-stamped so receivers can order states without a clock. One
// message type carries heartbeats, committed-epoch anti-entropy, epoch
// proposals and proposal acknowledgements at once — the protocol is
// convergent under drops, duplicates and reorder, so no field needs
// reliable delivery.
//
// Interpretation of the fields (the state machine lives in
// internal/membership; comm only defines the wire shape):
//
//   - Epoch/Leader/Members/Degrees describe the sender's committed
//     epoch record. A receiver whose own committed epoch is newer
//     rejects the message as stale (and answers with its state).
//   - PropEpoch != 0 piggybacks the sender's pending proposal for the
//     next epoch.
//   - Ack != 0 endorses the proposal whose record digest it names.
//   - Clock/Echo implement heartbeat RTT measurement: each side stamps
//     its local nanos into Clock and echoes the peer's last Clock back.
type Control struct {
	// Op is the membership-defined operation code (opState etc.).
	Op uint8
	// Epoch is the sender's committed epoch number.
	Epoch uint64
	// Leader is the rank that committed the epoch (ties at equal Epoch
	// resolve toward the lower leader).
	Leader int32
	// Members is the committed member set, sorted physical ranks.
	Members []int32
	// Degrees is the committed epoch's butterfly degree vector.
	Degrees []int32
	// PropEpoch is the pending proposal's target epoch (0 = none).
	PropEpoch uint64
	// PropLeader is the proposer's rank.
	PropLeader int32
	// PropMembers is the proposed member set.
	PropMembers []int32
	// PropDegrees is the proposed degree vector.
	PropDegrees []int32
	// Ack names (by record digest) the proposal the sender endorses
	// (0 = none).
	Ack uint64
	// Clock is the sender's local monotonic nanos at send time.
	Clock int64
	// Echo returns the receiver's last observed Clock (0 = none), from
	// which the receiver derives a heartbeat round-trip time.
	Echo int64
}

// StalerThan reports whether the message's committed epoch is strictly
// older than the given epoch — the stale-epoch rejection predicate.
func (p *Control) StalerThan(epoch uint64) bool { return p.Epoch < epoch }

// Clone implements Payload.
func (p *Control) Clone() Payload {
	q := *p
	q.Members = append([]int32(nil), p.Members...)
	q.Degrees = append([]int32(nil), p.Degrees...)
	q.PropMembers = append([]int32(nil), p.PropMembers...)
	q.PropDegrees = append([]int32(nil), p.PropDegrees...)
	return &q
}

// WireSize implements Payload.
func (p *Control) WireSize() int {
	return 1 + 1 + 8 + 4 + // disc, op, epoch, leader
		4 + 4*len(p.Members) +
		4 + 4*len(p.Degrees) +
		8 + 4 + // prop epoch, prop leader
		4 + 4*len(p.PropMembers) +
		4 + 4*len(p.PropDegrees) +
		8 + 8 + 8 // ack, clock, echo
}

func appendInt32s(buf []byte, vs []int32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// AppendTo implements Payload.
func (p *Control) AppendTo(buf []byte) []byte {
	buf = append(buf, wireControl, p.Op)
	buf = binary.LittleEndian.AppendUint64(buf, p.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Leader))
	buf = appendInt32s(buf, p.Members)
	buf = appendInt32s(buf, p.Degrees)
	buf = binary.LittleEndian.AppendUint64(buf, p.PropEpoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.PropLeader))
	buf = appendInt32s(buf, p.PropMembers)
	buf = appendInt32s(buf, p.PropDegrees)
	buf = binary.LittleEndian.AppendUint64(buf, p.Ack)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Clock))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Echo))
	return buf
}

// decodeControlPayload parses the bytes after the wireControl
// discriminator.
func decodeControlPayload(buf []byte) (Payload, error) {
	readU32 := func() (uint32, error) {
		if len(buf) < 4 {
			return 0, fmt.Errorf("comm: truncated control payload")
		}
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		return v, nil
	}
	readU64 := func() (uint64, error) {
		if len(buf) < 8 {
			return 0, fmt.Errorf("comm: truncated control payload")
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v, nil
	}
	readInt32s := func() ([]int32, error) {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if len(buf) < int(n)*4 {
			return nil, fmt.Errorf("comm: truncated control payload")
		}
		if n == 0 {
			return nil, nil
		}
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		buf = buf[n*4:]
		return vs, nil
	}
	if len(buf) < 1 {
		return nil, fmt.Errorf("comm: truncated control payload")
	}
	c := &Control{Op: buf[0]}
	buf = buf[1:]
	var err error
	if c.Epoch, err = readU64(); err != nil {
		return nil, err
	}
	leader, err := readU32()
	if err != nil {
		return nil, err
	}
	c.Leader = int32(leader)
	if c.Members, err = readInt32s(); err != nil {
		return nil, err
	}
	if c.Degrees, err = readInt32s(); err != nil {
		return nil, err
	}
	if c.PropEpoch, err = readU64(); err != nil {
		return nil, err
	}
	propLeader, err := readU32()
	if err != nil {
		return nil, err
	}
	c.PropLeader = int32(propLeader)
	if c.PropMembers, err = readInt32s(); err != nil {
		return nil, err
	}
	if c.PropDegrees, err = readInt32s(); err != nil {
		return nil, err
	}
	if c.Ack, err = readU64(); err != nil {
		return nil, err
	}
	clock, err := readU64()
	if err != nil {
		return nil, err
	}
	c.Clock = int64(clock)
	echo, err := readU64()
	if err != nil {
		return nil, err
	}
	c.Echo = int64(echo)
	return c, nil
}
