package comm

import "time"

// Observer is the one transport event sink: traffic accounting, the
// metrics registry and error spans are all fed from these three
// events, so a byte is sized and counted once.
//
// ObserveSend is called once per message at send time with the
// payload's wire size and its uncompressed size (RawWireSize), so
// traffic toward dead machines is charged to the sender exactly as a
// physical NIC would be. ObserveRecv is called once per finished
// matched receive — on success with the payload's wire size and the
// time the receiver spent blocked, on failure with the error (a
// timed-out receive carries its *TimeoutError, which observers turn
// into an error span). RecvGroup receives additionally report their
// wait through ObserveRecvGroup, the hot path's arrival-order
// primitive.
//
// A nil Observer is off: transports then skip the WireSize call
// entirely, so unobserved runs never pay for encoding payloads that
// in-memory delivery would not otherwise serialize. Observers are
// called outside transport locks and must be safe for concurrent use;
// implementations must not allocate on the success path (the warm
// Reduce is gated at 0 allocs/op with observation enabled).
type Observer interface {
	ObserveSend(from, to int, tag Tag, wire, raw int)
	ObserveRecv(from int, tag Tag, bytes int, wait time.Duration, err error)
	ObserveRecvGroup(tag Tag, wait time.Duration)
}
