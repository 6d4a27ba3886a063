package comm

import "time"

// RecvObserver observes completed receives for the observability layer.
// Transports call ObserveRecv once per finished matched receive — on
// success with the payload's wire size and the time the receiver spent
// blocked, on failure with the error (a timed-out receive carries its
// *TimeoutError, which observers turn into an error span). RecvGroup
// receives additionally report their wait through ObserveRecvGroup,
// the hot path's arrival-order primitive. Observers are called outside
// transport locks and must be safe for concurrent use; implementations
// must not allocate on the success path (the warm Reduce is gated at
// 0 allocs/op with observation enabled).
type RecvObserver interface {
	ObserveRecv(from int, tag Tag, bytes int, wait time.Duration, err error)
	ObserveRecvGroup(tag Tag, wait time.Duration)
}

// Recorder observes transport sends for traffic accounting. Transports
// call Record once per message with the payload's wire size and its
// uncompressed size (RawWireSize), so compression ratios surface in
// traffic reports without a second accounting pass; recording happens
// at send time, so traffic toward dead machines is charged to the
// sender exactly as a physical NIC would be. A nil Recorder is off:
// transports then skip the WireSize call entirely, so untraced runs
// never pay for encoding payloads that in-memory delivery would not
// otherwise serialize.
type Recorder interface {
	Record(from, to int, tag Tag, wire, raw int)
}
