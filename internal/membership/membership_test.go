package membership

import (
	"errors"
	"testing"
	"time"

	"kylix/internal/memnet"
)

func rec(epoch uint64, leader int, members ...int) Record {
	return Record{Epoch: epoch, Leader: leader, Members: members, Degrees: DeriveDegrees(len(members))}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	a := rec(3, 0, 0, 1, 2, 3)
	if a.Digest() != a.Digest() {
		t.Fatal("digest not deterministic")
	}
	if a.Digest() != a.Clone().Digest() {
		t.Fatal("clone digest differs")
	}
	variants := []Record{
		rec(4, 0, 0, 1, 2, 3),
		rec(3, 1, 0, 1, 2, 3),
		rec(3, 0, 0, 1, 2, 4),
		rec(3, 0, 0, 1, 2),
	}
	for i, v := range variants {
		if v.Digest() == a.Digest() {
			t.Fatalf("variant %d collides with base digest", i)
		}
	}
	b := a.Clone()
	b.Degrees = []int{2, 2}
	if b.Digest() == a.Digest() {
		t.Fatal("degree change not reflected in digest")
	}
}

func TestSupersedes(t *testing.T) {
	base := rec(2, 1, 0, 1)
	if !rec(3, 5, 0, 1).Supersedes(base) {
		t.Fatal("higher epoch must supersede")
	}
	if rec(1, 0, 0, 1).Supersedes(base) {
		t.Fatal("lower epoch must not supersede")
	}
	if !rec(2, 0, 0, 1).Supersedes(base) {
		t.Fatal("equal epoch, lower leader must supersede")
	}
	if rec(2, 2, 0, 1).Supersedes(base) {
		t.Fatal("equal epoch, higher leader must not supersede")
	}
	if base.Supersedes(base) {
		t.Fatal("record must not supersede itself")
	}
}

func TestChangeApply(t *testing.T) {
	cur := rec(1, 0, 0, 1, 2, 3)

	next, err := (Change{Add: []int{5, 4}, Remove: []int{1, 3}}).Apply(cur, 2, 2)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if next.Epoch != 2 || next.Leader != 2 {
		t.Fatalf("epoch/leader = %d/%d, want 2/2", next.Epoch, next.Leader)
	}
	want := []int{0, 2, 4, 5}
	if len(next.Members) != len(want) {
		t.Fatalf("members = %v, want %v", next.Members, want)
	}
	for i := range want {
		if next.Members[i] != want[i] {
			t.Fatalf("members = %v, want %v (sorted)", next.Members, want)
		}
	}

	// Same size: degrees must be carried over untouched.
	cur2 := cur.Clone()
	cur2.Degrees = []int{4} // deliberately not what DeriveDegrees picks
	swap, err := (Change{Add: []int{9}, Remove: []int{0}}).Apply(cur2, 1, 1)
	if err != nil {
		t.Fatalf("replace apply: %v", err)
	}
	if len(swap.Degrees) != 1 || swap.Degrees[0] != 4 {
		t.Fatalf("replace perturbed degrees: %v", swap.Degrees)
	}

	for name, bad := range map[string]Change{
		"remove non-member": {Remove: []int{7}},
		"add existing":      {Add: []int{0}},
		"add twice":         {Add: []int{8, 8}},
		"empty result":      {Remove: []int{0, 1, 2, 3}},
	} {
		if _, err := bad.Apply(cur, 1, 0); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := (Change{Remove: []int{0}}).Apply(cur, 2, 0); err == nil {
		t.Fatal("3 survivors with s=2 must be rejected")
	}
}

func TestLeaderOf(t *testing.T) {
	members := []int{2, 5, 9}
	if got := LeaderOf(members, nil); got != 2 {
		t.Fatalf("leader = %d, want 2", got)
	}
	sus := func(r int) bool { return r == 2 }
	if got := LeaderOf(members, sus); got != 5 {
		t.Fatalf("leader with 2 suspected = %d, want 5", got)
	}
	all := func(int) bool { return true }
	if got := LeaderOf(members, all); got != 2 {
		t.Fatalf("all-suspected fallback = %d, want 2", got)
	}
	if got := LeaderOf(nil, nil); got != -1 {
		t.Fatalf("empty member leader = %d, want -1", got)
	}
}

func TestDeriveDegreesDeterministic(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8, 9, 16, 17} {
		d1 := DeriveDegrees(m)
		d2 := DeriveDegrees(m)
		if len(d1) != len(d2) {
			t.Fatalf("m=%d: nondeterministic lengths %v vs %v", m, d1, d2)
		}
		prod := 1
		for i, v := range d1 {
			if v != d2[i] {
				t.Fatalf("m=%d: nondeterministic %v vs %v", m, d1, d2)
			}
			prod *= v
		}
		if m >= 1 && prod != m && !(m == 1 && prod == 1) {
			t.Fatalf("m=%d: degrees %v multiply to %d", m, d1, prod)
		}
	}
}

// startAgents spins up one agent per physical rank over a fresh memnet.
func startAgents(t *testing.T, size int, members []int, opts Options) (*memnet.Network, []*Agent, *Service) {
	t.Helper()
	net := memnet.New(size, memnet.WithRecvTimeout(200*time.Millisecond))
	initial := Record{Epoch: 1, Leader: members[0], Members: members, Degrees: DeriveDegrees(len(members) / max(1, opts.Replication))}
	agents := make([]*Agent, size)
	for r := 0; r < size; r++ {
		agents[r] = NewAgent(r, net.Endpoint(r), initial, opts)
	}
	svc := NewService(agents, func(r int) bool { return !net.Dead(r) })
	t.Cleanup(func() {
		svc.Stop()
		net.Close()
	})
	return net, agents, svc
}

func fastOpts() Options {
	return Options{
		Heartbeat:    2 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DrainTimeout: 100 * time.Millisecond,
		Seed:         1,
	}
}

func TestAgentJoinLeaveConverges(t *testing.T) {
	_, _, svc := startAgents(t, 6, []int{0, 1, 2, 3}, fastOpts())

	got, err := svc.Propose(Change{Add: []int{4, 5}}, 5*time.Second)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if got.Epoch != 2 || len(got.Members) != 6 {
		t.Fatalf("post-join record = %+v", got)
	}
	conv, err := svc.WaitConverged(5 * time.Second)
	if err != nil {
		t.Fatalf("converge after join: %v", err)
	}
	if conv.Digest() != got.Digest() {
		t.Fatalf("converged on %+v, want %+v", conv, got)
	}

	got, err = svc.Propose(Change{Remove: []int{1, 4}}, 5*time.Second)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got.Epoch != 3 || len(got.Members) != 4 || got.HasMember(1) || got.HasMember(4) {
		t.Fatalf("post-leave record = %+v", got)
	}
	if _, err := svc.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("converge after leave: %v", err)
	}
}

func TestAgentLeaderFailover(t *testing.T) {
	net, agents, svc := startAgents(t, 5, []int{0, 1, 2, 3}, fastOpts())

	// Kill the epoch-1 coordinator. The survivors must elect rank 1 and
	// still be able to drive a change through.
	net.Kill(0)
	agents[0].Stop()

	got, err := svc.Propose(Change{Remove: []int{0}, Add: []int{4}}, 10*time.Second)
	if err != nil {
		t.Fatalf("replace through failover: %v", err)
	}
	if got.HasMember(0) || !got.HasMember(4) {
		t.Fatalf("record = %+v", got)
	}
	if got.Leader != 1 {
		t.Fatalf("committing leader = %d, want 1", got.Leader)
	}
	if _, err := svc.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("converge after failover: %v", err)
	}
}

func TestAgentAutoEvict(t *testing.T) {
	opts := fastOpts()
	opts.AutoEvict = true
	net, agents, svc := startAgents(t, 4, []int{0, 1, 2, 3}, opts)

	net.Kill(3)
	agents[3].Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		r := svc.Snapshot()
		if !r.HasMember(3) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 3 never auto-evicted; record %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := svc.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("converge after auto-evict: %v", err)
	}
}

func TestSubmitRouting(t *testing.T) {
	_, agents, _ := startAgents(t, 4, []int{0, 1, 2}, fastOpts())

	// Non-leader member: routing hint.
	_, err := agents[1].Submit(Change{Add: []int{3}})
	var nle *NotLeaderError
	if !errors.As(err, &nle) || nle.Leader != 0 {
		t.Fatalf("submit to follower: %v", err)
	}
	// Spare: not a member.
	if _, err := agents[3].Submit(Change{Add: []int{3}}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("submit to spare: %v", err)
	}
	// Leader accepts; immediately resubmitting races the in-flight
	// transition (ErrBusy) or arrives after it committed (already a
	// member). Both are correct.
	if _, err := agents[0].Submit(Change{Add: []int{3}}); err != nil {
		t.Fatalf("submit to leader: %v", err)
	}
	if _, err := agents[0].Submit(Change{Add: []int{3}}); err == nil {
		t.Fatal("duplicate add must not be accepted twice")
	}
	// Stopped agent.
	agents[2].Stop()
	if _, err := agents[2].Submit(Change{Add: []int{3}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit to stopped: %v", err)
	}
}
