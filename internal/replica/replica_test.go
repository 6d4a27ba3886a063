package replica

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

func TestWrapValidation(t *testing.T) {
	n := memnet.New(6)
	defer n.Close()
	if _, err := Wrap(n.Endpoint(0), nil, 0); err == nil {
		t.Error("accepted s=0")
	}
	if _, err := Wrap(n.Endpoint(0), nil, 4); err == nil {
		t.Error("accepted non-divisible factor")
	}
	ep, err := Wrap(n.Endpoint(0), nil, 1)
	if err != nil || ep != n.Endpoint(0).(comm.Endpoint) && ep.Size() != 6 {
		t.Error("s=1 should be a pass-through")
	}
	ep2, err := Wrap(n.Endpoint(4), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Size() != 3 || ep2.Rank() != 1 {
		t.Fatalf("logical size=%d rank=%d", ep2.Size(), ep2.Rank())
	}
}

// LogicalRank maps a physical rank to the logical rank it plays in an
// s-replicated cluster of physical size m.
func LogicalRank(physRank, m, s int) int { return physRank % (m / s) }

// Replicas lists the physical machines playing logical rank q in an
// s-replicated cluster of physical size m, primary first.
func Replicas(q, m, s int) []int {
	out := make([]int, s)
	for j := range out {
		out[j] = q + j*(m/s)
	}
	return out
}

func TestHelpers(t *testing.T) {
	if LogicalRank(5, 6, 2) != 2 || LogicalRank(2, 6, 2) != 2 {
		t.Error("LogicalRank wrong")
	}
	r := Replicas(1, 6, 2)
	if len(r) != 2 || r[0] != 1 || r[1] != 4 {
		t.Errorf("Replicas = %v", r)
	}
	if b := BirthdayBound(64); math.Abs(b-10.03) > 0.1 {
		t.Errorf("BirthdayBound(64) = %g", b)
	}
}

func TestReplicatedSendReachesAllReplicas(t *testing.T) {
	n := memnet.New(4)
	defer n.Close()
	ep0, _ := Wrap(n.Endpoint(0), nil, 2)
	tag := comm.MakeTag(comm.KindApp, 0, 0)
	if err := ep0.Send(1, tag, &comm.Bytes{Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Both physical replicas of logical 1 (machines 1 and 3) got a copy.
	for _, phys := range []int{1, 3} {
		if _, err := n.Endpoint(phys).Recv(0, tag); err != nil {
			t.Fatalf("replica %d missed the message: %v", phys, err)
		}
	}
}

func TestSendRejectsBadLogicalRank(t *testing.T) {
	n := memnet.New(4)
	defer n.Close()
	ep, _ := Wrap(n.Endpoint(0), nil, 2)
	if err := ep.Send(2, comm.MakeTag(comm.KindApp, 0, 0), &comm.Bytes{}); err == nil {
		t.Fatal("accepted out-of-range logical rank")
	}
}

func TestRecvRacesReplicas(t *testing.T) {
	n := memnet.New(4)
	defer n.Close()
	tag := comm.MakeTag(comm.KindApp, 0, 1)
	// Only the twin (machine 3) of logical sender 1 delivers.
	if err := n.Endpoint(3).Send(0, tag, &comm.Bytes{Data: []byte("twin")}); err != nil {
		t.Fatal(err)
	}
	ep0, _ := Wrap(n.Endpoint(0), nil, 2)
	p, err := ep0.Recv(1, tag)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.(*comm.Bytes).Data) != "twin" {
		t.Fatal("wrong payload")
	}
}

func TestRecvGroupMapsWinnerToLogical(t *testing.T) {
	n := memnet.New(4)
	defer n.Close()
	tag := comm.MakeTag(comm.KindApp, 0, 2)
	if err := n.Endpoint(2).Send(1, tag, &comm.Bytes{}); err != nil { // phys 2 = logical 0's twin
		t.Fatal(err)
	}
	ep, _ := Wrap(n.Endpoint(1), nil, 2)
	from, _, err := ep.RecvGroup([][]int{{0, 1}}, tag)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 {
		t.Fatalf("winner reported as logical %d, want 0", from)
	}
}

func TestViewRemap(t *testing.T) {
	net := memnet.New(6, memnet.WithRecvTimeout(time.Second))
	defer net.Close()
	members := []int{1, 3, 4}

	if _, err := Wrap(net.Endpoint(0), members, 1); err == nil {
		t.Fatal("non-member view must be rejected")
	}
	if _, err := Wrap(net.Endpoint(1), []int{1, 9}, 1); err == nil {
		t.Fatal("out-of-range member must be rejected")
	}
	if _, err := Wrap(net.Endpoint(1), []int{1, 1}, 1); err == nil {
		t.Fatal("duplicate member must be rejected")
	}

	v3, err := Wrap(net.Endpoint(3), members, 1)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	if v3.Rank() != 1 || v3.Size() != 3 {
		t.Fatalf("rank/size = %d/%d, want 1/3", v3.Rank(), v3.Size())
	}
	v1, err := Wrap(net.Endpoint(1), members, 1)
	if err != nil {
		t.Fatalf("view: %v", err)
	}

	tag := comm.MakeTag(comm.KindApp, 0, 7)
	// Dense 1 (phys 3) sends to dense 0 (phys 1).
	if err := v3.Send(0, tag, &comm.Bytes{Data: []byte{42}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	p, err := v1.Recv(1, tag)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if p.(*comm.Bytes).Data[0] != 42 {
		t.Fatalf("payload = %v", p)
	}

	// RecvGroup remaps the winner back to dense space.
	if err := v3.Send(0, tag, &comm.Bytes{Data: []byte{43}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	from, _, err := v1.RecvGroup([][]int{{1, 2}}, tag)
	if err != nil {
		t.Fatalf("recvgroup: %v", err)
	}
	if from != 1 {
		t.Fatalf("recvgroup winner = %d, want dense 1", from)
	}

	// Out-of-range dense ranks are endpoint errors, not transport sends.
	if err := v3.Send(3, tag, &comm.Bytes{}); err == nil {
		t.Fatal("dense rank 3 must be out of range")
	}

	// Members replicated twice: {1,3,4,6} is two logical ranks, logical
	// 0 played by physical 1 and 4, logical 1 by physical 3 and 6.
	net8 := memnet.New(8, memnet.WithRecvTimeout(time.Second))
	defer net8.Close()
	members = []int{1, 3, 4, 6}
	if _, err := Wrap(net8.Endpoint(1), members[:3], 2); err == nil {
		t.Fatal("3 members at s=2 must be rejected")
	}
	r4, err := Wrap(net8.Endpoint(4), members, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Rank() != 0 || r4.Size() != 2 {
		t.Fatalf("rank/size = %d/%d, want 0/2", r4.Rank(), r4.Size())
	}
	r6, err := Wrap(net8.Endpoint(6), members, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r6.Send(0, tag, &comm.Bytes{Data: []byte{44}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	for _, phys := range []int{1, 4} {
		p, err := net8.Endpoint(phys).Recv(6, tag)
		if err != nil {
			t.Fatalf("replica %d of logical 0 missed the message: %v", phys, err)
		}
		if p.(*comm.Bytes).Data[0] != 44 {
			t.Fatalf("payload at %d = %v", phys, p)
		}
	}
	// Physical 6 is logical 1's second copy; its win maps back to 1.
	if err := net8.Endpoint(6).Send(4, tag, &comm.Bytes{}); err != nil {
		t.Fatal(err)
	}
	if from, _, err := r4.RecvGroup([][]int{{0}, {1}}, tag); err != nil || from != 1 {
		t.Fatalf("recvgroup winner = %d (%v), want logical 1", from, err)
	}
}

// TestOutOfRangeLogicalRankIsRefused checks that a receive from a
// logical rank outside [0, Size) fails at once, rather than racing the
// physical machines that the rank arithmetic happens to land on.
func TestOutOfRangeLogicalRankIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		phys    int
		members []int
		bad     []int
	}{
		{"all ranks", 6, nil, []int{-1, 3, 4}},
		{"members", 8, []int{1, 3, 4, 6}, []int{-1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := memnet.New(tc.phys, memnet.WithRecvTimeout(time.Second))
			defer net.Close()
			const self = 1
			ep, err := Wrap(net.Endpoint(self), tc.members, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range tc.bad {
				recvTag := comm.MakeTag(comm.KindApp, 0, uint32(2*i))
				groupTag := comm.MakeTag(comm.KindApp, 0, uint32(2*i+1))
				// Every other machine has a message waiting, so a receive
				// that mapped q onto any physical rank would succeed.
				for p := 0; p < tc.phys; p++ {
					for _, tag := range []comm.Tag{recvTag, groupTag} {
						if p != self {
							if err := net.Endpoint(p).Send(self, tag, &comm.Bytes{Data: []byte{byte(p)}}); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if p, err := ep.Recv(q, recvTag); err == nil {
					t.Errorf("Recv(%d) took physical %d's payload, want an error", q, p.(*comm.Bytes).Data[0])
				}
				if from, p, err := ep.RecvGroup([][]int{{q}}, groupTag); err == nil {
					t.Errorf("RecvGroup({{%d}}) took physical %d's payload as logical %d, want an error", q, p.(*comm.Bytes).Data[0], from)
				}
			}
		})
	}
}

// replicatedAllreduce runs the full Kylix protocol on a replicated
// cluster with the given dead physical machines and returns per-logical
// results (from whichever replica survived).
func replicatedAllreduce(t *testing.T, degrees []int, s int, dead []int) ([][]float32, [][]float32) {
	t.Helper()
	got, want, _ := replicatedRounds(t, degrees, s, dead, 1)
	return got, want
}

// cancellationMarks counts the race-cancellation marks the network's
// mailboxes hold. The count is part of no API, so it is read through
// reflection — after Run has returned, when nothing else touches the
// mailboxes.
func cancellationMarks(n *memnet.Network) int {
	boxes := reflect.ValueOf(n).Elem().FieldByName("boxes")
	total := 0
	for i := 0; i < boxes.Len(); i++ {
		total += boxes.Index(i).Elem().FieldByName("discard").Len()
	}
	return total
}

// replicatedRounds is replicatedAllreduce with the Reduce repeated:
// every round must return the first round's bits. It also reports the
// cancellation marks left once the run has quiesced.
func replicatedRounds(t *testing.T, degrees []int, s int, dead []int, rounds int) (got, want [][]float32, marks int) {
	t.Helper()
	bf := topo.MustNew(degrees)
	logical := bf.M()
	phys := logical * s
	rng := rand.New(rand.NewSource(77))

	ins := make([]sparse.Set, logical)
	outs := make([]sparse.Set, logical)
	vals := make([][]float32, logical)
	for q := 0; q < logical; q++ {
		inIdx := make([]int32, 40)
		outIdx := make([]int32, 40)
		for i := range inIdx {
			inIdx[i] = int32(rng.Intn(200))
			outIdx[i] = int32(rng.Intn(200))
		}
		outIdx = append(outIdx, inIdx...)
		ins[q] = sparse.MustNewSet(inIdx)
		outs[q] = sparse.MustNewSet(outIdx)
		vals[q] = make([]float32, len(outs[q]))
		for i := range vals[q] {
			vals[q][i] = float32(rng.Intn(50))
		}
	}

	// Brute-force reference.
	totals := map[sparse.Key]float32{}
	for q := 0; q < logical; q++ {
		for i, k := range outs[q] {
			totals[k] += vals[q][i]
		}
	}
	want = make([][]float32, logical)
	for q := 0; q < logical; q++ {
		want[q] = make([]float32, len(ins[q]))
		for i, k := range ins[q] {
			want[q][i] = totals[k]
		}
	}

	n := memnet.New(phys)
	defer n.Close()
	for _, d := range dead {
		n.Kill(d)
	}
	results := make([][]float32, phys)
	err := memnet.Run(n, func(pep comm.Endpoint) error {
		ep, err := Wrap(pep, nil, s)
		if err != nil {
			return err
		}
		q := ep.Rank()
		m, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		cfg, err := m.Configure(ins[q], outs[q])
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			res, err := cfg.Reduce(vals[q])
			if err != nil {
				return err
			}
			if r == 0 {
				results[pep.Rank()] = slices.Clone(res)
			} else if !slices.Equal(res, results[pep.Rank()]) {
				return fmt.Errorf("round %d differs from round 0", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	marks = cancellationMarks(n)
	// Collapse physical results to logical: any surviving replica's
	// output counts.
	got = make([][]float32, logical)
	for p := 0; p < phys; p++ {
		if results[p] != nil {
			got[p%logical] = results[p]
		}
	}
	return got, want, marks
}

func checkAllClose(t *testing.T, got, want [][]float32) {
	t.Helper()
	for q := range want {
		if got[q] == nil {
			t.Fatalf("logical rank %d produced no result", q)
		}
		for i := range want[q] {
			if math.Abs(float64(got[q][i]-want[q][i])) > 1e-3 {
				t.Fatalf("logical %d slot %d: got %f want %f", q, i, got[q][i], want[q][i])
			}
		}
	}
}

func TestReplicatedAllreduceNoFailures(t *testing.T) {
	got, want := replicatedAllreduce(t, []int{4, 2}, 2, nil)
	checkAllClose(t, got, want)
}

// TestCancellationMarksAreReleased pins that a race-cancellation mark
// lives only while the losing copy is in flight: with every replica
// alive each loser's copy arrives, so after any number of rounds no
// mailbox holds a mark.
func TestCancellationMarksAreReleased(t *testing.T) {
	got, want, marks := replicatedRounds(t, []int{4, 2}, 2, nil, 1000)
	checkAllClose(t, got, want)
	if marks != 0 {
		t.Fatalf("%d cancellation marks held after a quiesced run, want 0", marks)
	}
}

func TestReplicatedAllreduceSurvivesFailures(t *testing.T) {
	// Table I's scenario: an 8x4-style replicated network with 1, 2 and
	// 3 dead machines still completes with identical results.
	for _, dead := range [][]int{{3}, {3, 9}, {3, 9, 12}} {
		got, want := replicatedAllreduce(t, []int{4, 2}, 2, dead)
		checkAllClose(t, got, want)
	}
}

func TestReplicationFactor3(t *testing.T) {
	// With s=3, two dead replicas of the same logical rank are fine.
	got, want := replicatedAllreduce(t, []int{4}, 3, []int{1, 5}) // logical 1's replicas are 1,5,9
	checkAllClose(t, got, want)
}

func TestWholeGroupDeadFails(t *testing.T) {
	// Killing every replica of one logical rank must break the protocol
	// (timeout), not hang forever or silently succeed.
	bf := topo.MustNew([]int{4})
	phys := 8
	n := memnet.New(phys, memnet.WithRecvTimeout(300*1000*1000)) // 300ms
	defer n.Close()
	n.Kill(2)
	n.Kill(6) // both replicas of logical 2
	err := memnet.Run(n, func(pep comm.Endpoint) error {
		ep, err := Wrap(pep, nil, 2)
		if err != nil {
			return err
		}
		m, err := core.NewMachine(ep, bf, core.Options{})
		if err != nil {
			return err
		}
		set := sparse.MustNewSet([]int32{1, 2, 3})
		cfg, err := m.Configure(set, set)
		if err != nil {
			return err
		}
		_, err = cfg.Reduce([]float32{1, 1, 1})
		return err
	})
	if err == nil {
		t.Fatal("protocol succeeded with an entire replica group dead")
	}
}
