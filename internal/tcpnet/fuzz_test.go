package tcpnet

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"kylix/internal/comm"
)

// wireFrame lays a frame out by hand, ack included, optionally with a
// checksum that does not match.
func wireFrame(seq, ack uint64, payload []byte, badCRC bool) []byte {
	f := testFrame(seq, comm.MakeTag(comm.KindApp, 0, uint32(seq)), string(payload))
	binary.LittleEndian.PutUint64(f[24:hdrSize], ack)
	if badCRC {
		f[12] ^= 0x5a
	}
	return f
}

// fuzzSent is how many frames the node under fuzz has "sent" toward the
// peer the stream claims to come from: acks up to it are valid.
const fuzzSent = 5

// modelStream is the reference reading of a frame stream: how many
// frames reach the mailbox and where the acks leave the reverse window.
// Everything after the first frame that is truncated, oversized, fails
// its checksum or does not decode is ignored — the stream is dropped
// there.
func modelStream(stream []byte) (delivered int, acked uint64) {
	var last uint64
	for len(stream) >= hdrSize {
		hdr, rest := stream[:hdrSize], stream[hdrSize:]
		size := int(binary.LittleEndian.Uint32(hdr[:4]))
		if size > maxFrame || len(rest) < size {
			return
		}
		if crc32.Checksum(rest[:size], castagnoli) != binary.LittleEndian.Uint32(hdr[12:16]) {
			return
		}
		if ack := binary.LittleEndian.Uint64(hdr[24:32]); ack > acked && ack <= fuzzSent {
			acked = ack
		}
		stream = rest[size:]
		if size == 0 {
			continue
		}
		if _, err := comm.DecodePayload(rest[:size]); err != nil {
			return
		}
		if seq := binary.LittleEndian.Uint64(hdr[16:24]); seq == 0 {
			delivered++
		} else if seq > last {
			last = seq
			delivered++
		}
	}
	return
}

// FuzzFrameStream feeds arbitrary bytes, after a valid handshake, to a
// node's frame reader: it must not panic, must deliver exactly the
// frames of the valid prefix (none whose checksum fails, no sequence
// twice), and must leave the reverse window's ack at the running
// maximum of the valid acks — never lower, never past what was sent.
func FuzzFrameStream(f *testing.F) {
	good := (&comm.Floats{Vals: []float32{1, 2, 3}}).AppendTo(nil)
	cat := func(frames ...[]byte) (out []byte) {
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	three := cat(wireFrame(1, 0, good, false), wireFrame(2, 1, good, false), wireFrame(3, 2, good, false))
	f.Add(three)
	f.Add(three[:len(three)-5])                                                                          // truncated payload
	f.Add(three[:2*(hdrSize+len(good))+hdrSize/2])                                                       // cut mid-batch, inside a header
	f.Add(cat(wireFrame(1, 0, good, false), wireFrame(2, 3, good, true), wireFrame(3, 4, good, false)))  // bad CRC
	f.Add(cat(wireFrame(1, 0, good, false), wireFrame(1, 0, good, false), wireFrame(0, 0, good, false))) // replay, unsequenced
	f.Add(cat(wireFrame(0, 2, nil, false), wireFrame(0, 4, nil, false)))                                 // ack-only frames
	f.Add(cat(wireFrame(0, 3, nil, false), wireFrame(0, 1<<50, nil, false), wireFrame(0, fuzzSent+1, nil, false),
		wireFrame(0, 1, nil, false), wireFrame(0, 4, nil, false))) // forged and regressing acks
	oversized := wireFrame(1, 0, good, false)
	binary.LittleEndian.PutUint32(oversized[:4], maxFrame+1)
	f.Add(oversized)
	forged := wireFrame(1, 0, good, false)
	binary.LittleEndian.PutUint32(forged[:4], maxFrame) // a gigabyte announced, a few bytes sent
	f.Add(forged)

	f.Fuzz(func(t *testing.T, stream []byte) {
		// A node without listener or writers: only the reader runs.
		n := &Node{
			addrs: make([]string, 2),
			opts:  Options{}.withDefaults(),
			box:   comm.NewMailbox(time.Second),
			peers: make(map[int]*peer),
			done:  make(chan struct{}),
			from:  make([]sender, 2),
		}
		defer n.box.Close()
		pr := &peer{frames: make([][]byte, fuzzSent), next: fuzzSent, seq: fuzzSent}
		pr.work.L, pr.space.L = &pr.mu, &pr.mu
		n.peers[1] = pr

		client, server := net.Pipe()
		n.wg.Add(1)
		go n.readLoop(server)
		written := make(chan struct{})
		go func() {
			defer close(written)
			defer client.Close()
			var hs [8]byte
			binary.LittleEndian.PutUint32(hs[:4], magic)
			binary.LittleEndian.PutUint32(hs[4:], 1)
			if _, err := client.Write(hs[:]); err == nil {
				_, _ = client.Write(stream) // fails once the reader drops the stream
			}
		}()
		n.wg.Wait()
		_ = server.Close()
		<-written

		delivered, acked := modelStream(stream)
		if got := n.box.Pending(); got != delivered {
			t.Fatalf("%d frames delivered, the valid prefix holds %d", got, delivered)
		}
		if pr.acked != acked || len(pr.frames) != fuzzSent-int(acked) {
			t.Fatalf("reverse window at ack %d holding %d frames, want ack %d holding %d", pr.acked, len(pr.frames), acked, fuzzSent-int(acked))
		}
	})
}
