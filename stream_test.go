package kylix_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/leakcheck"
)

// streamWorkload is one tenant's deterministic reduction: per-rank
// Zipf index sets seeded by the tenant id, values a non-trivial
// function of (tenant, rank, round) so cross-delivered payloads would
// corrupt results detectably, and several Reduce rounds per Configure
// so warm-path traffic shares the fabric too.
type streamWorkload struct {
	tenant int
	sets   [][]int32
}

func newStreamWorkload(t testing.TB, tenant, m int, n int64, nnz int) *streamWorkload {
	t.Helper()
	sets := make([][]int32, m)
	for r := 0; r < m; r++ {
		rng := rand.New(rand.NewSource(int64(tenant)*1_000_003 + int64(r)*7919 + 1))
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
		seen := map[int32]bool{}
		set := make([]int32, 0, nnz)
		for len(set) < nnz {
			idx := int32(zipf.Uint64())
			if !seen[idx] {
				seen[idx] = true
				set = append(set, idx)
			}
		}
		sets[r] = set
	}
	return &streamWorkload{tenant: tenant, sets: sets}
}

// run executes the workload's pass on one node: ConfigureReduce plus
// `rounds` warm Reduces, returning the concatenated per-round results.
func (w *streamWorkload) run(node *kylix.Node, rounds int) ([][]float32, error) {
	set := w.sets[node.Rank()]
	vals := make([]float32, len(set))
	for i := range vals {
		vals[i] = float32(w.tenant+1) + float32(node.Rank())*0.25 + float32(i%7)*0.125
	}
	red, first, err := node.ConfigureReduce(set, set, vals)
	if err != nil {
		return nil, err
	}
	out := [][]float32{first}
	for r := 1; r < rounds; r++ {
		for i := range vals {
			vals[i] = float32(w.tenant+1)*float32(r+1) + float32(node.Rank())*0.5
		}
		res, err := red.Reduce(vals)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// collect runs the workload over a runner (Cluster.Run or Stream.Run)
// and gathers every rank's per-round results.
func (w *streamWorkload) collect(runner func(func(*kylix.Node) error) error, m, rounds int) ([][][]float32, error) {
	res := make([][][]float32, m)
	var mu sync.Mutex
	err := runner(func(node *kylix.Node) error {
		v, err := w.run(node, rounds)
		if err != nil {
			return err
		}
		mu.Lock()
		res[node.Rank()] = v
		mu.Unlock()
		return nil
	})
	return res, err
}

func assertStreamMatchesIsolated(t *testing.T, tenant int, got, want [][][]float32) {
	t.Helper()
	for rank := range want {
		if got[rank] == nil || want[rank] == nil {
			t.Fatalf("tenant %d rank %d: missing results", tenant, rank)
		}
		for round := range want[rank] {
			if !bitsEqual(got[rank][round], want[rank][round]) {
				t.Fatalf("tenant %d rank %d round %d: concurrent result differs from isolated run",
					tenant, rank, round)
			}
		}
	}
}

// TestStreamIsolation64 is the tentpole gate: K concurrent Zipf
// streams over one shared 64-machine fabric produce per-stream results
// bit-identical to K isolated runs. Before the widened tag layout,
// concurrent Configs collided on identical tags and cross-delivered
// payloads; this is the regression test for that headline bug.
func TestStreamIsolation64(t *testing.T) {
	defer leakcheck.Check(t)()
	const (
		m       = 64
		n       = int64(8192)
		nnz     = 256
		tenants = 4
		rounds  = 3
	)
	opts := []kylix.Option{
		kylix.WithDegrees(4, 4, 4),
		kylix.WithRecvTimeout(60 * time.Second),
	}

	// Isolated ground truth: each tenant alone on a fresh cluster.
	isolated := make([][][][]float32, tenants)
	workloads := make([]*streamWorkload, tenants)
	for k := 0; k < tenants; k++ {
		workloads[k] = newStreamWorkload(t, k, m, n, nnz)
		solo, err := kylix.NewCluster(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workloads[k].collect(solo.Run, m, rounds)
		solo.Close()
		if err != nil {
			t.Fatalf("isolated tenant %d: %v", k, err)
		}
		isolated[k] = res
	}

	// Concurrent: all tenants share one fabric, running at once.
	shared, err := kylix.NewCluster(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	concurrent := make([][][][]float32, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for k := 0; k < tenants; k++ {
		st, err := shared.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		wg.Add(1)
		go func(k int, st *kylix.Stream) {
			defer wg.Done()
			concurrent[k], errs[k] = workloads[k].collect(st.Run, m, rounds)
		}(k, st)
	}
	wg.Wait()
	for k := 0; k < tenants; k++ {
		if errs[k] != nil {
			t.Fatalf("concurrent tenant %d: %v", k, errs[k])
		}
		assertStreamMatchesIsolated(t, k, concurrent[k], isolated[k])
	}
	if shared.ActiveStreams() != tenants {
		t.Fatalf("ActiveStreams = %d, want %d", shared.ActiveStreams(), tenants)
	}
}

// testStreamIsolationChaos runs K concurrent streams under the chaos
// fault fabric (drops, duplicates, delays, reorders confined to the
// upper replica half — §V's survivable regime) and asserts each
// stream's results stay bit-identical to its isolated fault-free run.
// Adversarial tag overlap is built in: every tenant uses the same
// (kind, layer, seq) triples, distinguished only by the stream field.
func testStreamIsolationChaos(t *testing.T, transport kylix.Transport) {
	const (
		phys    = 16
		logical = 8
		n       = int64(2048)
		nnz     = 96
		tenants = 3
		rounds  = 3
	)
	base := []kylix.Option{
		kylix.WithTransport(transport),
		kylix.WithReplication(2),
		kylix.WithDegrees(4, 2),
		kylix.WithRecvTimeout(30 * time.Second),
	}
	isolated := make([][][][]float32, tenants)
	workloads := make([]*streamWorkload, tenants)
	for k := 0; k < tenants; k++ {
		workloads[k] = newStreamWorkload(t, k, logical, n, nnz)
		solo, err := kylix.NewCluster(phys, base...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workloads[k].collect(solo.Run, logical, rounds)
		solo.Close()
		if err != nil {
			t.Fatalf("isolated tenant %d: %v", k, err)
		}
		isolated[k] = res
	}

	plan := kylix.FaultPlan{
		Seed:      4242,
		Faulty:    []int{8, 9, 10, 11, 12, 13, 14, 15},
		Drop:      0.08,
		Duplicate: 0.12,
		Delay:     0.20,
		MaxDelay:  2 * time.Millisecond,
		Reorder:   0.06,
	}
	shared, err := kylix.NewCluster(phys, append(append([]kylix.Option{}, base...),
		kylix.WithFaults(plan))...)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	concurrent := make([][][][]float32, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for k := 0; k < tenants; k++ {
		st, err := shared.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		wg.Add(1)
		go func(k int, st *kylix.Stream) {
			defer wg.Done()
			concurrent[k], errs[k] = workloads[k].collect(st.Run, logical, rounds)
		}(k, st)
	}
	wg.Wait()
	for k := 0; k < tenants; k++ {
		if errs[k] != nil {
			t.Fatalf("chaos tenant %d: %v", k, errs[k])
		}
		assertStreamMatchesIsolated(t, k, concurrent[k], isolated[k])
	}
	st := shared.Faults().Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
		t.Fatalf("chaos schedule never engaged: %+v", st)
	}
}

func TestStreamIsolationChaosMemory(t *testing.T) {
	testStreamIsolationChaos(t, kylix.TransportMemory)
}

func TestStreamIsolationChaosTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp chaos soak")
	}
	testStreamIsolationChaos(t, kylix.TransportTCP)
}

// TestStreamAdmission pins the open-stream bound and id hygiene.
func TestStreamAdmission(t *testing.T) {
	defer leakcheck.Check(t)()
	c, err := kylix.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opened := make([]*kylix.Stream, kylix.MaxOpenStreams)
	for i := range opened {
		if opened[i], err = c.OpenStream(); err != nil {
			t.Fatalf("stream %d of %d: %v", i+1, kylix.MaxOpenStreams, err)
		}
	}
	if _, err := c.OpenStream(); !errors.Is(err, kylix.ErrTooManyStreams) {
		t.Fatalf("err = %v, want ErrTooManyStreams", err)
	}
	a := opened[0]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range opened {
		if d.ID() == st.ID() {
			t.Fatalf("stream id %d reused", d.ID())
		}
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if c.ActiveStreams() != kylix.MaxOpenStreams {
		t.Fatalf("ActiveStreams = %d, want %d", c.ActiveStreams(), kylix.MaxOpenStreams)
	}
}

// TestStreamBackpressure pins the per-stream in-flight bound: a pass
// submitted while the bound's worth of passes are queued or running is
// rejected immediately with a *StreamBusyError.
func TestStreamBackpressure(t *testing.T) {
	c, err := kylix.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	release := make(chan struct{})
	running := make(chan struct{}, 4)
	done := make(chan error, kylix.StreamInflight)
	go func() {
		done <- st.Run(func(node *kylix.Node) error {
			running <- struct{}{}
			<-release
			return nil
		})
	}()
	<-running // the pass is live and holds the stream's mutex
	for i := 1; i < kylix.StreamInflight; i++ {
		go func() { done <- st.Run(func(node *kylix.Node) error { return nil }) }()
	}
	for st.Inflight() < kylix.StreamInflight {
		runtime.Gosched() // the rest queue on the mutex
	}
	err = st.Run(func(node *kylix.Node) error { return nil })
	var busy *kylix.StreamBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want *StreamBusyError", err)
	}
	if busy.Stream != st.ID() || busy.Inflight != kylix.StreamInflight {
		t.Fatalf("busy context = %+v", busy)
	}
	close(release)
	for i := 0; i < 3; i++ {
		<-running // remaining ranks of the first pass
	}
	for i := 0; i < kylix.StreamInflight; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The bound freed: submissions flow again.
	if err := st.Run(func(node *kylix.Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCloseSemantics pins the lifecycle state machine: Run after
// Close fails with ErrStreamClosed, a queued pass fails when the close
// lands first, and the in-flight pass drains cleanly.
func TestStreamCloseSemantics(t *testing.T) {
	defer leakcheck.Check(t)()
	c, err := kylix.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	running := make(chan struct{}, 4)
	inflight := make(chan error, 1)
	go func() {
		inflight <- st.Run(func(node *kylix.Node) error {
			running <- struct{}{}
			<-release
			return nil
		})
	}()
	<-running
	queued := make(chan error, 1)
	go func() {
		queued <- st.Run(func(node *kylix.Node) error { return nil })
	}()
	for st.Inflight() != 2 { // the second pass is admitted and queues on the stream
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	for !st.Closed() { // Close has latched the flag and waits on the in-flight pass
		runtime.Gosched()
	}
	close(release) // drain the in-flight pass

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight pass failed: %v", err)
	}
	if err := <-queued; !errors.Is(err, kylix.ErrStreamClosed) {
		t.Fatalf("queued pass err = %v, want ErrStreamClosed", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := st.Run(func(node *kylix.Node) error { return nil }); !errors.Is(err, kylix.ErrStreamClosed) {
		t.Fatalf("run after close = %v, want ErrStreamClosed", err)
	}
	if !st.Closed() {
		t.Fatal("Closed() false after Close")
	}
}

// TestStreamMetricsExposed checks the per-tenant counters land in the
// registry (and therefore on the HTTP /metrics endpoint).
func TestStreamMetricsExposed(t *testing.T) {
	c, err := kylix.NewCluster(4, kylix.WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Run(func(node *kylix.Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics().Snapshot()
	key := fmt.Sprintf("stream/%d/passes", st.ID())
	if snap.Counters[key] != 1 {
		t.Fatalf("%s = %d, want 1", key, snap.Counters[key])
	}
	if snap.Counters["streams_opened"] != 1 || snap.Counters["streams_closed"] != 1 {
		t.Fatalf("aggregate stream counters wrong: %v", snap.Counters)
	}
	if snap.Gauges["streams_active"] != 0 {
		t.Fatalf("streams_active = %d after close", snap.Gauges["streams_active"])
	}
}
