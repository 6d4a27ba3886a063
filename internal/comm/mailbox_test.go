package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refBox is the mailbox's specification in its plainest form: a FIFO per
// (sender, tag), the set of cancellation marks and the set of dead
// streams. It does not say which of several ready senders a receive
// takes — only FIFO per sender is promised — so take checks that what
// the mailbox delivered is legal and then applies it.
type refBox struct {
	fifo  map[mailKey][]Payload
	marks map[mailKey]bool
	dead  map[StreamID]bool
}

func (r *refBox) deliver(from int, tag Tag, p Payload) {
	k := mailKey{from, tag}
	switch {
	case r.marks[k]:
		delete(r.marks, k) // the losing copy arrived: dropped, mark released
	case r.dead[tag.Stream()]:
	default:
		r.fifo[k] = append(r.fifo[k], p)
	}
}

func groupWith(groups [][]int, from int) []int {
	for _, g := range groups {
		for _, f := range g {
			if f == from {
				return g
			}
		}
	}
	return nil
}

// ready reports whether a receive over groups would find a message.
func (r *refBox) ready(groups [][]int, tag Tag) bool {
	for k, q := range r.fifo {
		if k.tag == tag && len(q) > 0 && groupWith(groups, k.from) != nil {
			return true
		}
	}
	return false
}

func (r *refBox) take(groups [][]int, tag Tag, from int, p Payload) error {
	k, g := mailKey{from, tag}, groupWith(groups, from)
	if g == nil || len(r.fifo[k]) == 0 || r.fifo[k][0] != p {
		return fmt.Errorf("took %p from %d under %v over %v; that sender's queue is %v", p, from, tag, groups, r.fifo[k])
	}
	if r.fifo[k] = r.fifo[k][1:]; len(r.fifo[k]) == 0 {
		delete(r.fifo, k)
	}
	for _, loser := range g {
		lk := mailKey{loser, tag}
		switch {
		case loser == from:
		case len(r.fifo[lk]) > 0:
			delete(r.fifo, lk) // its copies were queued: dropped on the spot
		default:
			r.marks[lk] = true // its copy is still in flight
		}
	}
	return nil
}

func (r *refBox) closeStream(id StreamID) {
	r.dead[id] = true
	for k := range r.fifo {
		if k.tag.Stream() == id {
			delete(r.fifo, k)
		}
	}
	for k := range r.marks {
		if k.tag.Stream() == id {
			delete(r.marks, k)
		}
	}
}

// check compares every count the mailbox exposes, and its marks, with
// the reference.
func (r *refBox) check(mb *Mailbox, streams []StreamID) error {
	pending, tags := 0, map[Tag]bool{}
	perStream := map[StreamID]int{}
	for k, q := range r.fifo {
		pending += len(q)
		perStream[k.tag.Stream()] += len(q)
		tags[k.tag] = true
	}
	if got := mb.Pending(); got != pending {
		return fmt.Errorf("Pending = %d, want %d", got, pending)
	}
	if got := mb.IndexedTags(); got != len(tags) {
		return fmt.Errorf("IndexedTags = %d, want %d", got, len(tags))
	}
	for _, s := range streams {
		if got := mb.StreamPending(s); got != perStream[s] {
			return fmt.Errorf("StreamPending(%d) = %d, want %d", s, got, perStream[s])
		}
		if mb.StreamDead(s) != r.dead[s] {
			return fmt.Errorf("StreamDead(%d) = %v", s, !r.dead[s])
		}
	}
	if got := len(mb.discard); got != len(r.marks) {
		return fmt.Errorf("%d cancellation marks, want %d", got, len(r.marks))
	}
	return nil
}

// runMailboxModel interprets ops, three bytes an operation, against a
// mailbox and the reference: deliveries (repeats of one (sender, tag)
// are the duplicates a chaotic transport makes), Recv, RecvGroup over
// singleton groups, over replica pairs and over both, and CloseStream.
// A receive is issued only when the reference says it cannot block.
func runMailboxModel(ops []byte) error {
	const ranks = 6
	streams := []StreamID{DefaultStream, 1, 2}
	var tags []Tag
	for _, s := range streams {
		tags = append(tags, MakeStreamTag(s, KindReduce, 0, 0), MakeStreamTag(s, KindReduce, 0, 1))
	}
	mb := NewMailbox(10 * time.Second)
	defer mb.Close()
	ref := &refBox{fifo: map[mailKey][]Payload{}, marks: map[mailKey]bool{}, dead: map[StreamID]bool{}}

	recv := func(groups [][]int, tag Tag, one bool) error {
		dead := ref.dead[tag.Stream()]
		if len(groups) == 0 || !dead && !ref.ready(groups, tag) {
			return nil
		}
		var from int
		var p Payload
		var err error
		if one {
			from = groups[0][0]
			p, err = mb.Recv(from, tag)
		} else {
			from, p, err = mb.RecvGroup(groups, tag)
		}
		if dead {
			if !errors.Is(err, ErrStreamClosed) {
				return fmt.Errorf("receive on dead stream: %v", err)
			}
			return nil
		}
		if err != nil {
			return err
		}
		return ref.take(groups, tag, from, p)
	}

	for i := 0; i+3 <= len(ops); i += 3 {
		kind, a, b := ops[i]%8, int(ops[i+1]), int(ops[i+2])
		tag := tags[b%len(tags)]
		var err error
		switch kind {
		case 0, 1, 2, 3:
			p := &Bytes{}
			mb.Deliver(a%ranks, tag, p)
			ref.deliver(a%ranks, tag, p)
		case 4:
			err = recv([][]int{{a % ranks}}, tag, true)
		case 5: // singleton groups: the senders in a's low six bits
			var groups [][]int
			for r := 0; r < ranks; r++ {
				if a>>r&1 == 1 {
					groups = append(groups, []int{r})
				}
			}
			err = recv(groups, tag, false)
		case 6: // replica pairs (r, r+3) in a's low three bits, lone senders in the next three
			var groups [][]int
			for r := 0; r < ranks/2; r++ {
				if a>>r&1 == 1 {
					groups = append(groups, []int{r, r + ranks/2})
				} else if a>>(r+3)&1 == 1 {
					groups = append(groups, []int{r})
				}
			}
			err = recv(groups, tag, false)
		case 7:
			if s := streams[a%len(streams)]; b%16 == 0 {
				mb.CloseStream(s)
				if s != DefaultStream {
					ref.closeStream(s)
				}
			}
		}
		if err == nil {
			err = ref.check(mb, streams)
		}
		if err != nil {
			return fmt.Errorf("op %d (%d %d %d): %w", i/3, kind, a, b, err)
		}
	}
	return nil
}

// TestMailboxModel runs seeded random operation sequences through the
// model: short ones where streams die early, long ones where backlogs
// build up.
func TestMailboxModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 3*(20+rng.Intn(600)))
		rng.Read(ops)
		if err := runMailboxModel(ops); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzMailbox lets the fuzzer search for an operation sequence on which
// the mailbox and the reference disagree.
func FuzzMailbox(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{3, 30, 300, 1500} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	// A replica wins its pair's race before its twin's copy arrives; the
	// twin then delivers twice (dropped against the mark, then queued).
	f.Add([]byte{0, 0, 0, 6, 1, 0, 0, 3, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runMailboxModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// id payloads for the order tests.
func idPayload(id int) Payload { return &Floats{Vals: []float32{float32(id)}} }
func payloadID(p Payload) int  { return int(p.(*Floats).Vals[0]) }

// TestMailboxFIFOPerSenderAroundNonHeadTake takes entries out of the
// middle of a tag's queue and checks every sender's messages still come
// out in the order they went in.
func TestMailboxFIFOPerSenderAroundNonHeadTake(t *testing.T) {
	mb := NewMailbox(time.Second)
	tag := MakeTag(KindApp, 0, 0)
	for i, from := range []int{1, 2, 1, 3, 2, 1} { // ids 0..5 in arrival order
		mb.Deliver(from, tag, idPayload(i))
	}
	for i, step := range []struct {
		groups   [][]int
		from, id int
	}{
		{[][]int{{2}}, 2, 1},       // not the head
		{[][]int{{3}}, 3, 3},       // not the head, and its sender's only one
		{[][]int{{2}, {3}}, 2, 4},  // past both of sender 1's entries
		{[][]int{{1}, {2}}, 1, 0},  // the head
		{[][]int{{1}, {2}}, 1, 2},  // the head again
		{[][]int{{1, 2, 3}}, 1, 5}, // a race with nothing queued to cancel
	} {
		from, p, err := mb.RecvGroup(step.groups, tag)
		if err != nil || from != step.from || payloadID(p) != step.id {
			t.Fatalf("step %d: got message %v from %d (%v), want %d from %d", i, p, from, err, step.id, step.from)
		}
	}
	if mb.Pending() != 0 || mb.IndexedTags() != 0 {
		t.Fatalf("%d messages under %d tags left", mb.Pending(), mb.IndexedTags())
	}
}

// TestMailboxManyUnderOneTag is the shape of a fixed control tag:
// hundreds of messages from a few senders queued under one tag and
// always taken from the head, first all at once and then with a backlog
// that never drains — which must not let the queue grow by the entries
// already consumed.
func TestMailboxManyUnderOneTag(t *testing.T) {
	mb := NewMailbox(time.Second)
	tag := MakeTag(KindControl, 0, 0)
	groups := [][]int{{0}, {1}, {2}, {3}}
	const backlog = 600
	sent, next := 0, [4]int{}
	deliver := func() {
		mb.Deliver(sent%4, tag, idPayload(sent/4))
		sent++
	}
	take := func() {
		t.Helper()
		from, p, err := mb.RecvGroup(groups, tag)
		if err != nil {
			t.Fatal(err)
		}
		if payloadID(p) != next[from] {
			t.Fatalf("sender %d: got its message %d, want %d", from, payloadID(p), next[from])
		}
		next[from]++
	}
	for sent < backlog {
		deliver()
	}
	if mb.Pending() != backlog || mb.IndexedTags() != 1 {
		t.Fatalf("%d messages under %d tags, want %d under 1", mb.Pending(), mb.IndexedTags(), backlog)
	}
	for i := 0; i < 100*backlog; i++ {
		take()
		deliver()
	}
	if n := cap(mb.pending[tag].q); n > 4*backlog {
		t.Fatalf("queue holding %d messages has grown to %d slots", backlog, n)
	}
	for i := 0; i < backlog; i++ {
		take()
	}
	if mb.Pending() != 0 || mb.IndexedTags() != 0 {
		t.Fatalf("%d messages under %d tags left", mb.Pending(), mb.IndexedTags())
	}
}

// TestMailboxWarmRoundAllocatesNothing is the capacity-erosion guard: a
// layer's worth of deliveries and arrival-order receives under a tag
// never seen before reuses a recycled queue at its full capacity, round
// after round.
func TestMailboxWarmRoundAllocatesNothing(t *testing.T) {
	mb := NewMailbox(time.Second)
	groups := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	p := Payload(&Floats{})
	seq := uint32(0)
	round := func() {
		tag := MakeTag(KindReduce, 1, seq)
		seq++
		for from := range groups {
			mb.Deliver(from, tag, p)
		}
		for range groups {
			if _, _, err := mb.RecvGroup(groups, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("warm round allocates %v times, want 0", allocs)
	}
}
