package faultnet

import (
	"errors"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/replica"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// soakCluster is the shared harness: an s=2 replicated 16-machine
// memnet cluster whose physical endpoints run through one fabric, with
// persistent core.Machines so rounds advance in lockstep.
type soakCluster struct {
	net      *memnet.Network
	fab      *Fabric
	machines []*core.Machine
	phys     int
	logical  int
}

func newSoakCluster(t *testing.T, plan Plan) *soakCluster {
	t.Helper()
	const phys, logical = 16, 8
	fab, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	bf := topo.MustNew([]int{4, 2})
	net := memnet.New(phys, memnet.WithRecvTimeout(10*time.Second))
	t.Cleanup(net.Close)
	machines := make([]*core.Machine, phys)
	for p := 0; p < phys; p++ {
		ep, err := replica.Wrap(fab.Wrap(net.Endpoint(p)), nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = m
	}
	return &soakCluster{net: net, fab: fab, machines: machines, phys: phys, logical: logical}
}

// round runs one configure+reduce on every machine; results indexed by
// physical rank (nil for crash-stopped machines). Logical rank q
// contributes q+1 to shared feature 0 and to a private feature.
func (c *soakCluster) round(t *testing.T) [][]float32 {
	t.Helper()
	results := make([][]float32, c.phys)
	err := memnet.Run(c.net, func(pep comm.Endpoint) error {
		p := pep.Rank()
		m := c.machines[p]
		q := p % c.logical
		in := sparse.MustNewSet([]int32{0})
		out := sparse.MustNewSet([]int32{0, int32(1000 + q)})
		cfg, err := m.Configure(in, out)
		if err != nil {
			if c.fab.Killed(p) {
				return nil // the injected crash-stop, not a failure
			}
			return err
		}
		vals := make([]float32, 2)
		pos, _ := out.Position(sparse.MakeKey(0))
		vals[pos] = float32(q + 1)
		res, err := cfg.Reduce(vals)
		if err != nil {
			if c.fab.Killed(p) {
				return nil
			}
			return err
		}
		results[p] = res
		return nil
	})
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	return results
}

func (c *soakCluster) wantShared() float32 {
	w := float32(0)
	for q := 0; q < c.logical; q++ {
		w += float32(q + 1)
	}
	return w
}

func checkRound(t *testing.T, c *soakCluster, results [][]float32) {
	t.Helper()
	want := c.wantShared()
	live := 0
	for p, res := range results {
		if res == nil {
			continue
		}
		live++
		if res[0] != want {
			t.Fatalf("phys %d: shared sum %f, want %f", p, res[0], want)
		}
	}
	if live == 0 {
		t.Fatal("no live machine returned a result")
	}
}

var upperHalf = []int{8, 9, 10, 11, 12, 13, 14, 15}

// TestDropsDupsDelaysMasked: heavy message-level chaos confined to one
// replica half leaves every surviving rank's result exactly correct —
// the clean replica's copy always gets through.
func TestDropsDupsDelaysMasked(t *testing.T) {
	c := newSoakCluster(t, Plan{
		Seed:      11,
		Faulty:    upperHalf,
		Drop:      0.3,
		Duplicate: 0.3,
		Delay:     0.4,
		MaxDelay:  2 * time.Millisecond,
		Reorder:   0.15,
	})
	for round := 0; round < 3; round++ {
		checkRound(t, c, c.round(t))
	}
	st := c.fab.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 || st.Reordered == 0 {
		t.Fatalf("chaos never engaged: %+v", st)
	}
}

// TestKillAfterSendsMidScatter crash-stops a replica at a send count
// that lands inside the second round's scatter-reduce: the round (and
// the next) must still complete exactly on every survivor. This is the
// regime the between-rounds churn test never reached.
func TestKillAfterSendsMidScatter(t *testing.T) {
	// Probe pass: measure one round's per-rank send count fault-free.
	probe := newSoakCluster(t, Plan{Seed: 1})
	checkRound(t, probe, probe.round(t))
	perRound := probe.fab.Sends(9)
	if perRound == 0 {
		t.Fatal("probe measured no sends")
	}

	const victim = 9
	kill := Kill{Rank: victim, AfterSends: int(perRound + perRound/2)}
	c := newSoakCluster(t, Plan{Seed: 2, Kills: []Kill{kill}})

	checkRound(t, c, c.round(t)) // round 0: fault-free
	res := c.round(t)            // round 1: victim dies mid-scatter
	checkRound(t, c, res)
	if res[victim] != nil {
		t.Fatal("victim returned a result after its scheduled crash")
	}
	if !c.fab.Killed(victim) {
		t.Fatal("scheduled kill never fired")
	}
	if got := c.fab.Sends(victim); got != int64(kill.AfterSends)+1 {
		t.Fatalf("victim attempted %d sends, want crash on attempt %d", got, kill.AfterSends+1)
	}
	if got := c.fab.Sends(victim - 8); got <= int64(kill.AfterSends)+1 {
		t.Fatalf("kill did not land mid-round: victim stopped at %d sends but partner reached only %d", kill.AfterSends+1, got)
	}
	checkRound(t, c, c.round(t)) // round 2: cluster still healthy
}

// TestManualKillMidRoundUnblocksVictim: a manual Kill while the victim
// is blocked in a receive must fail the victim with ErrClosed (not hang
// to the timeout) and leave the survivors' round exact.
func TestManualKillMidRoundUnblocksVictim(t *testing.T) {
	c := newSoakCluster(t, Plan{Seed: 3})
	const victim = 12
	done := make(chan struct{})
	go func() {
		// Land the kill while the round is in flight.
		time.Sleep(2 * time.Millisecond)
		c.fab.Kill(victim)
		close(done)
	}()
	for round := 0; round < 3; round++ {
		res := c.round(t)
		checkRound(t, c, res)
	}
	<-done
	if !c.fab.Killed(victim) {
		t.Fatal("victim not marked killed")
	}
}

func sendTag(i uint32) comm.Tag { return comm.MakeTag(comm.KindApp, 0, i) }

// TestManualPartitionAndHeal: messages across a partition vanish;
// after Heal they flow again.
func TestManualPartitionAndHeal(t *testing.T) {
	fab, err := New(Plan{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	net := memnet.New(2, memnet.WithRecvTimeout(150*time.Millisecond))
	defer net.Close()
	a := fab.Wrap(net.Endpoint(0))
	b := fab.Wrap(net.Endpoint(1))

	fab.Partition([]int{0}, []int{1})
	if err := a.Send(1, sendTag(0), &comm.Bytes{Data: []byte("lost")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0, sendTag(0)); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("partitioned message arrived: %v", err)
	}
	fab.Heal()
	if err := a.Send(1, sendTag(1), &comm.Bytes{Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0, sendTag(1)); err != nil {
		t.Fatalf("healed link still dropping: %v", err)
	}
	if fab.Stats().Partitioned != 1 {
		t.Fatalf("partition stats = %+v", fab.Stats())
	}
}

// TestScheduledPartitionWindow: a partition windowed on the sender's
// send count activates and expires deterministically.
func TestScheduledPartitionWindow(t *testing.T) {
	fab, err := New(Plan{
		Seed: 5,
		Partitions: []Partition{
			{Groups: [][]int{{0}, {1}}, From: 1, Until: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := memnet.New(2, memnet.WithRecvTimeout(150*time.Millisecond))
	defer net.Close()
	a := fab.Wrap(net.Endpoint(0))
	b := fab.Wrap(net.Endpoint(1))

	// Send 1: before the window — delivered.
	// Send 2: inside [From=1, Until=2) counting "count > From && count <= Until" — dropped.
	// Send 3: past the window — delivered.
	for i := uint32(0); i < 3; i++ {
		if err := a.Send(1, sendTag(i), &comm.Bytes{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Recv(0, sendTag(0)); err != nil {
		t.Fatalf("send 1 (pre-window) lost: %v", err)
	}
	if _, err := b.Recv(0, sendTag(2)); err != nil {
		t.Fatalf("send 3 (post-window) lost: %v", err)
	}
	if _, err := b.Recv(0, sendTag(1)); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("send 2 (in-window) should have been dropped: %v", err)
	}
}

// TestDuplicateDeliversTwice: a duplicated message leaves a surplus
// copy queued behind the matched receive (inert for the protocol).
func TestDuplicateDeliversTwice(t *testing.T) {
	fab, err := New(Plan{Seed: 6, Duplicate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	net := memnet.New(2, memnet.WithRecvTimeout(time.Second))
	defer net.Close()
	a := fab.Wrap(net.Endpoint(0))
	b := fab.Wrap(net.Endpoint(1))
	if err := a.Send(1, sendTag(0), &comm.Floats{Vals: []float32{7}}); err != nil {
		t.Fatal(err)
	}
	fab.Flush()
	p, err := b.Recv(0, sendTag(0))
	if err != nil || p.(*comm.Floats).Vals[0] != 7 {
		t.Fatalf("first copy: %v %v", p, err)
	}
	// The duplicate is already queued (Flush waited for delivery).
	p, err = b.Recv(0, sendTag(0))
	if err != nil || p.(*comm.Floats).Vals[0] != 7 {
		t.Fatalf("duplicate copy: %v %v", p, err)
	}
}

// TestPlanValidation rejects malformed plans at construction.
func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Drop: -0.1},
		{Duplicate: 1.5},
		{Delay: 0.5}, // no MaxDelay
		{MaxDelay: -time.Second},
		{Kills: []Kill{{Rank: -1}}},
		{Kills: []Kill{{Rank: 0, AfterSends: -5}}},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Fatalf("plan %d accepted: %+v", i, p)
		}
	}
	if _, err := New(Plan{Seed: 9, Drop: 0.5, Delay: 0.1, MaxDelay: time.Millisecond}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestKillOnKind pins the protocol-step fault point: an armed rank
// survives sends of other kinds, crash-stops exactly on its next send
// of the armed kind, and the trigger is one-shot.
func TestKillOnKind(t *testing.T) {
	fab, err := New(Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := memnet.New(2, memnet.WithRecvTimeout(5*time.Second))
	t.Cleanup(net.Close)
	a := fab.Wrap(net.Endpoint(0))
	b := fab.Wrap(net.Endpoint(1))

	fab.KillOnKind(0, comm.KindControl)

	// A send of a different kind passes through untouched.
	dataTag := comm.MakeTag(comm.KindApp, 0, 1)
	if err := a.Send(1, dataTag, &comm.Floats{Vals: []float32{1}}); err != nil {
		t.Fatalf("non-armed kind send failed: %v", err)
	}
	if _, err := b.Recv(0, dataTag); err != nil {
		t.Fatalf("non-armed kind not delivered: %v", err)
	}

	// The armed kind crash-stops the sender.
	ctlTag := comm.MakeTag(comm.KindControl, 0, 0)
	if err := a.Send(1, ctlTag, &comm.Control{Epoch: 1}); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("armed kind send: got %v, want ErrClosed", err)
	}
	if !fab.Killed(0) {
		t.Fatal("rank 0 not killed by KillOnKind")
	}
	// One-shot: other ranks are unaffected and can still send control.
	if err := b.Send(1, ctlTag, &comm.Control{Epoch: 1}); err != nil {
		t.Fatalf("bystander control send failed: %v", err)
	}
	if _, err := b.Recv(1, ctlTag); err != nil {
		t.Fatalf("bystander control not delivered: %v", err)
	}
	// Arming a dead or out-of-range rank is a no-op.
	fab.KillOnKind(0, comm.KindApp)
	fab.KillOnKind(99, comm.KindApp)
}
