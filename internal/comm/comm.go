// Package comm defines the transport-independent messaging abstraction
// that the Kylix protocol runs on: ranked endpoints exchanging tagged,
// typed payloads with blocking matched receives. Two transports implement
// it — internal/memnet (in-process, one goroutine per machine) and
// internal/tcpnet (real TCP sockets, in- or cross-process).
//
// The design mirrors the paper's §VI-B implementation notes: sends are
// asynchronous and never block on the receiver (opportunistic
// communication), receives match on (sender, tag), and RecvGroup is both
// the any-source, arrival-order receive and — given a group of replicas
// — the "first replica wins" racing primitive of §V-B.
package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Kind classifies a message's role within the protocol.
type Kind uint8

const (
	// KindConfig carries in/out index sets during the downward
	// configuration pass.
	KindConfig Kind = iota + 1
	// KindReduce carries partial values during the downward
	// scatter-reduce pass.
	KindReduce
	// KindGather carries reduced values during the upward allgather.
	KindGather
	// KindConfigReduce carries indices and values together (the combined
	// configure+reduce used by minibatch workloads).
	KindConfigReduce
	// KindApp is reserved for application-level traffic (e.g. the
	// MapReduce baseline's shuffle).
	KindApp
	// KindControl carries the membership control plane's epoch-stamped
	// gossip (heartbeats, epoch proposals, acknowledgements). Control
	// traffic shares the transports with the data plane but lives in its
	// own kind so tags never collide with protocol rounds.
	KindControl
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindConfig:
		return "config"
	case KindReduce:
		return "reduce"
	case KindGather:
		return "gather"
	case KindConfigReduce:
		return "config+reduce"
	case KindApp:
		return "app"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StreamID names one logical tenant of a shared fabric. Every Tag
// embeds the stream that minted it, so concurrent reductions multiplex
// over the same endpoints without their messages cross-delivering:
// identical (kind, layer, seq) triples from two streams are distinct
// tags. Stream 0 (DefaultStream) is the classic single-tenant
// namespace used by Cluster.Run and the membership control plane.
type StreamID uint16

// DefaultStream is the implicit stream of single-tenant traffic:
// MakeTag mints into it, and it is never closed.
const DefaultStream StreamID = 0

// Tag identifies one matched send/receive step: the message kind, the
// stream (tenant) it belongs to, the communication layer, and a
// sequence number distinguishing successive rounds (e.g. PageRank
// iterations).
//
// Bit layout (most significant first):
//
//	63........56 55........40 39........32 31...........0
//	  kind (8)     stream (16)   layer (8)     seq (32)
type Tag uint64

// tagClamps counts tags whose layer was out of [0, 255] and got
// clamped by MakeStreamTag. The protocol never produces one (layers
// are bounded by the degree vector length), so a nonzero count is a
// caller bug surfaced as a metric instead of a process-killing panic.
var tagClamps atomic.Uint64

// TagClamps reports how many tag constructions clamped an
// out-of-range layer since process start.
func TagClamps() uint64 { return tagClamps.Load() }

// MakeStreamTag packs stream, kind, layer and sequence number into a
// Tag. A layer outside [0, 255] is clamped to the nearest bound and
// counted in TagClamps — never a panic: one bad tag must not take down
// a process that other tenants' streams share.
func MakeStreamTag(stream StreamID, kind Kind, layer int, seq uint32) Tag {
	if layer < 0 || layer > 255 {
		tagClamps.Add(1)
		if layer < 0 {
			layer = 0
		} else {
			layer = 255
		}
	}
	return Tag(uint64(kind)<<56 | uint64(stream)<<40 | uint64(uint8(layer))<<32 | uint64(seq))
}

// MakeTag packs kind, layer and sequence number into a DefaultStream
// Tag — the single-tenant constructor. Layer handling matches
// MakeStreamTag (clamp + count, no panic).
func MakeTag(kind Kind, layer int, seq uint32) Tag {
	return MakeStreamTag(DefaultStream, kind, layer, seq)
}

// Kind extracts the message kind.
func (t Tag) Kind() Kind { return Kind(t >> 56) }

// Stream extracts the stream (tenant) id.
func (t Tag) Stream() StreamID { return StreamID(t >> 40) }

// Layer extracts the communication layer.
func (t Tag) Layer() int { return int(uint8(t >> 32)) }

// Seq extracts the sequence number.
func (t Tag) Seq() uint32 { return uint32(t) }

// String implements fmt.Stringer. The stream is shown only when it is
// not DefaultStream, so single-tenant logs look as before.
func (t Tag) String() string {
	if s := t.Stream(); s != DefaultStream {
		return fmt.Sprintf("%s/S%d/L%d/#%d", t.Kind(), s, t.Layer(), t.Seq())
	}
	return fmt.Sprintf("%s/L%d/#%d", t.Kind(), t.Layer(), t.Seq())
}

// Errors shared by transports.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("comm: endpoint closed")
	// ErrTimeout is returned when a receive's deadline expires, which in
	// an unreplicated network means a peer died or the protocol hung.
	// Transports return it wrapped in a *TimeoutError carrying the tag,
	// the expected senders and the elapsed wait, so a hung soak test is
	// diagnosable from the error string alone; match it with
	// errors.Is(err, ErrTimeout).
	ErrTimeout = errors.New("comm: receive timed out")
	// ErrStreamClosed is returned by receives on a stream whose
	// namespace has been closed (Mailbox.CloseStream). The endpoint as a
	// whole stays live — only the one tenant's traffic is dead.
	ErrStreamClosed = errors.New("comm: stream closed")
)

// TimeoutError is the structured form of ErrTimeout: it records which
// receive expired so callers (and humans reading soak-test logs) can
// tell "peer slow" from "peer dead" and see exactly which protocol step
// stalled. errors.Is(err, ErrTimeout) matches it.
type TimeoutError struct {
	// Tag is the matched-receive signature that never arrived.
	Tag Tag
	// From lists the sender ranks the receive was waiting on (one for
	// Recv, every group member for RecvGroup).
	From []int
	// Elapsed is how long the receiver actually waited.
	Elapsed time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("comm: receive %s from %v timed out after %v", e.Tag, e.From, e.Elapsed.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrTimeout) match a *TimeoutError.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Endpoint is one machine's connection to the cluster. Send is
// asynchronous (it never waits for the receiver) and safe for concurrent
// use; Recv blocks until a message with the exact (from, tag) signature
// arrives. Sending to a dead machine is a silent no-op: the paper's
// fault-tolerance design requires that survivors keep streaming to
// replica groups without tracking liveness.
type Endpoint interface {
	// Rank is this machine's index in [0, Size).
	Rank() int
	// Size is the cluster size m.
	Size() int
	// Send transmits p to machine `to` under the given tag. Ownership of
	// p transfers to the transport; the caller must not mutate it after
	// sending.
	Send(to int, tag Tag, p Payload) error
	// Recv blocks for the message sent by `from` with tag `tag`.
	Recv(from int, tag Tag) (Payload, error)
	// RecvGroup blocks until a message with the tag arrives from any
	// sender in any of the groups, returning the winning sender's rank.
	// A win cancels only the winner's own group — late copies from its
	// co-members carried the same logical message (the §V-B replica
	// race) and are discarded — while every other group remains fully
	// deliverable. With singleton groups this is a pure any-source,
	// arrival-order receive: the reduction hot path issues all of a
	// layer's sends and then combines pieces as they land, instead of
	// blocking head-of-line on a fixed member order. Implementations
	// must not retain or mutate the groups slices.
	RecvGroup(groups [][]int, tag Tag) (int, Payload, error)
	// Close releases the endpoint; blocked receives return ErrClosed.
	Close() error
}
