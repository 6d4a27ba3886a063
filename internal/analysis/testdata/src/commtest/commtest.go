// Package commtest exercises the commcheck analyzer: discarded
// comm.Endpoint errors and untyped integer literal tags must be
// flagged; handled errors, deliberate discards, named constants and
// comm.MakeTag must pass.
package commtest

import (
	"kylix/internal/comm"
)

// tagProbe is the sanctioned way to name a fixed tag.
const tagProbe comm.Tag = 1<<60 | 7

func Dropped(ep comm.Endpoint, tag comm.Tag, p comm.Payload) {
	ep.Send(1, tag, p)              // want "Send error discarded"
	ep.RecvGroup([][]int{{1}}, tag) // want "RecvGroup error discarded"
	defer ep.Close()                // want "Close error discarded"
}

func DroppedInGoroutine(ep comm.Endpoint, tag comm.Tag) {
	go ep.Close() // want "Close error discarded"
}

func Handled(ep comm.Endpoint, tag comm.Tag, p comm.Payload) error {
	if err := ep.Send(1, tag, p); err != nil { // accepted: error consumed
		return err
	}
	_, err := ep.Recv(0, tag) // accepted: error consumed
	if err != nil {
		return err
	}
	_ = ep.Close() // accepted: visible, deliberate discard
	return nil
}

func LiteralTag(ep comm.Endpoint, p comm.Payload) error {
	return ep.Send(1, 7, p) // want "untyped integer literal passed as comm.Tag"
}

func ConvertedTag() comm.Tag {
	return comm.Tag(7) // want "untyped integer literal converted to comm.Tag"
}

func NamedTags(ep comm.Endpoint, p comm.Payload) error {
	if err := ep.Send(1, tagProbe, p); err != nil { // accepted: named constant
		return err
	}
	return ep.Send(1, comm.MakeTag(comm.KindReduce, 3, 9), p) // accepted: MakeTag packing
}

func LiteralStreamID() comm.Tag {
	return comm.MakeStreamTag(9, comm.KindReduce, 3, 9) // want "untyped integer literal passed as comm.StreamID"
}

func ConvertedStreamID() comm.StreamID {
	return comm.StreamID(9) // want "untyped integer literal converted to comm.StreamID"
}

func NamedStreamIDs(id comm.StreamID) comm.Tag {
	_ = comm.MakeStreamTag(comm.DefaultStream, comm.KindConfig, 0, 1) // accepted: named constant
	return comm.MakeStreamTag(id, comm.KindReduce, 3, 9)              // accepted: registry-allocated id
}
