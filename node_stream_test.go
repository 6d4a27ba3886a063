package kylix_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/leakcheck"
)

// TestNodeStreamsOverListenNode is the cross-process tenancy contract,
// on four ListenNode nodes over real sockets: two tenants derived with
// Node.Stream under different ids, fed identical sets and values, run
// concurrently with each other and with the main node's own pass, and
// every rank's every result is bit-identical between them and to a
// fresh single-tenant run. Closing one tenant everywhere purges its
// namespace and leaves its sibling reducing.
func TestNodeStreamsOverListenNode(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		m      = 4
		rounds = 3 // ConfigureReduce + 2 x Reduce
		idA    = 7
		idB    = 9
	)
	tenant := newStreamWorkload(t, 1, m, 8192, 256)
	own := newStreamWorkload(t, 2, m, 8192, 256)

	// The single-tenant references: each workload alone on a fresh cluster.
	reference := func(w *streamWorkload) [][]uint64 {
		solo, err := kylix.NewCluster(m, kylix.WithDegrees(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer solo.Close()
		res, err := w.collect(solo.Run, m, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return digestsOf(res)
	}
	wantTenant, wantOwn := reference(tenant), reference(own)

	addrs, err := reservePorts(m)
	if err != nil {
		t.Skip("cannot reserve ports:", err)
	}
	nodes := make([]*kylix.Node, m)
	as, bs := make([]*kylix.Node, m), make([]*kylix.Node, m)
	for r := range nodes {
		node, err := kylix.ListenNode(r, addrs, kylix.WithDegrees(2, 2), kylix.WithRecvTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[r] = node
		if as[r], err = node.Stream(idA); err != nil {
			t.Fatal(err)
		}
		if bs[r], err = node.Stream(idB); err != nil {
			t.Fatal(err)
		}
	}

	// pass runs one workload on every rank's node of one namespace at
	// once — Cluster.Run's shape over ListenNode nodes — and checks every
	// rank's digests against the reference.
	pass := func(name string, ns []*kylix.Node, w *streamWorkload, want [][]uint64) error {
		res, err := w.collect(func(fn func(*kylix.Node) error) error {
			var wg sync.WaitGroup
			errs := make([]error, m)
			for r, node := range ns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = fn(node)
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		}, m, rounds)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got := digestsOf(res); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: digests %x, single-tenant run %x", name, got, want)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, p := range []func() error{
		func() error { return pass("main", nodes, own, wantOwn) },
		func() error { return pass("tenant a", as, tenant, wantTenant) },
		func() error { return pass("tenant b", bs, tenant, wantTenant) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	for r, node := range nodes {
		node.CloseStream(idA)
		if n := node.StreamPending(idA); n != 0 {
			t.Fatalf("rank %d: %d messages pending in the closed stream", r, n)
		}
	}
	if _, err := tenant.run(as[0], 1); !errors.Is(err, kylix.ErrStreamClosed) {
		t.Fatalf("pass on the closed stream: %v, want ErrStreamClosed", err)
	}
	if err := pass("tenant b after a closed", bs, tenant, wantTenant); err != nil {
		t.Fatal(err)
	}
}

// TestNodeStreamAndOpenStreamNeverShareAnID: in one process, a network
// derived with Node.Stream and a tenant from OpenStream under the same
// id would mint identical tags (both round cursors start at 0) and take
// each other's messages. Whichever comes first keeps the id: a derived
// id is skipped by OpenStream, an issued one is refused by Node.Stream,
// and a tenant's own nodes derive nothing.
func TestNodeStreamAndOpenStreamNeverShareAnID(t *testing.T) {
	c, err := kylix.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	derive := func(run func(func(*kylix.Node) error) error, id uint16) error {
		return run(func(node *kylix.Node) error {
			_, err := node.Stream(id)
			return err
		})
	}

	// Derive, then OpenStream: the derived id is skipped.
	if err := derive(c.Run, 1); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ID() == 1 {
		t.Fatal("OpenStream issued the id a Cluster.Run derived")
	}
	if err := derive(c.Run, 1); err != nil {
		t.Fatalf("deriving the same id again: %v", err)
	}

	// OpenStream, then derive: the issued id is refused.
	if err := derive(c.Run, st.ID()); err == nil {
		t.Fatalf("derived stream %d, which OpenStream issued", st.ID())
	}
	// A tenant's node derives nothing, even under a free id.
	if err := derive(st.Run, 9); err == nil {
		t.Fatal("derived a network from a tenant's node")
	}
}

// digestsOf maps collect's per-rank, per-round results to their digests.
func digestsOf(res [][][]float32) [][]uint64 {
	out := make([][]uint64, len(res))
	for r, rounds := range res {
		for _, vals := range rounds {
			out[r] = append(out[r], kylix.ValuesDigest(vals))
		}
	}
	return out
}
