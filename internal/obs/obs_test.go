package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kylix/internal/comm"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.SetMax(3) // lower: must not move the watermark
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax(11) = %d, want 11", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d, want 1000", h.Max())
	}
	// Log2 buckets: the quantile is an upper bound within a factor of 2.
	if p50 := h.Quantile(0.5); p50 < 500 || p50 > 1024 {
		t.Fatalf("p50 = %d, want in [500, 1024]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 990 || p99 > 2048 {
		t.Fatalf("p99 = %d, want in [990, 2048]", p99)
	}
	h.Observe(-5) // clamps to zero, must not panic or skew the sum
	if h.Sum() != 1000*1001/2 {
		t.Fatalf("sum = %d, want %d", h.Sum(), 1000*1001/2)
	}
}

func TestNilRegistryYieldsLiveMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter is not live")
	}
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(9)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestRegistryGetOrCreateAndJSON(t *testing.T) {
	r := NewRegistry()
	if r.Counter("hits") != r.Counter("hits") {
		t.Fatal("same name must return the same counter")
	}
	r.Counter("hits").Add(5)
	r.Gauge("depth").Set(2)
	r.Histogram("wait").Observe(100)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if snap.Counters["hits"] != 5 || snap.Gauges["depth"] != 2 || snap.Histograms["wait"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if !strings.Contains(r.String(), "hits") {
		t.Fatal("String() missing registered metric")
	}
}

func TestSpanRingWrapCountsDrops(t *testing.T) {
	o := New(1, 4)
	tr := o.Node(0)
	for i := 0; i < 10; i++ {
		sp := tr.Begin(comm.KindReduce, i)
		tr.End(&sp)
	}
	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring of 4 holds %d spans", len(spans))
	}
	// Oldest-first: the survivors are the last four spans recorded.
	for i, sp := range spans {
		if sp.Layer != 6+i {
			t.Fatalf("span %d layer = %d, want %d (oldest-first order)", i, sp.Layer, 6+i)
		}
	}
	if got := o.Registry().Counter("spans_dropped").Value(); got != 6 {
		t.Fatalf("spans_dropped = %d, want 6", got)
	}
}

func TestNilObservatoryAndTracerAreNoOps(t *testing.T) {
	var o *Observatory
	if o.Machines() != 0 || o.Node(0) != nil || o.Registry() != nil ||
		o.Transport() != nil || o.Observer(0) != nil || o.Traffic() != nil || o.FaultObserver() != nil {
		t.Fatal("nil Observatory accessors must return zero values")
	}
	if o.Spans() != nil {
		t.Fatal("nil Observatory Spans must be nil")
	}
	if err := o.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil Observatory WriteChromeTrace must error")
	}
	var tr *Tracer
	sp := tr.Begin(comm.KindReduce, 1)
	sp.BytesOut = 100
	tr.End(&sp)
	tr.Instant("kill")
	tr.CountRound()
	tr.CountArenaFlip()
	tr.RecordError(comm.KindReduce, 1, time.Second, errors.New("x"))
}

// TestByteCountersAreViewsOfTheStore pins the single-source contract
// at the package level: what a sink's ObserveSend records is what the
// registry's byte counters read, spans add nothing to them, and a
// Reset of the store never runs a counter backwards.
func TestByteCountersAreViewsOfTheStore(t *testing.T) {
	o := New(2, 0)
	sk, reg := o.Observer(1), o.Registry()
	sk.ObserveSend(1, 0, comm.MakeTag(comm.KindReduce, 2, 0), 1000, 1000)
	sk.ObserveSend(1, 1, comm.MakeTag(comm.KindGather, 2, 0), 234, 468)
	sk.ObserveSend(1, 0, comm.MakeTag(comm.KindConfigReduce, 1, 0), 50, 400)
	sp := o.Node(1).Begin(comm.KindReduce, 3)
	sp.BytesOut = 77
	o.Node(1).End(&sp)
	want := map[string]int64{
		"bytes_reduce_L2": 1000, "bytes_gather_L2": 234, "bytes_config+reduce_L1": 50,
		"values_bytes_encoded": 1234, "values_bytes_raw": 1468,
		"config_bytes_encoded": 50, "config_bytes_raw": 400,
	}
	check := func(when string) {
		t.Helper()
		snap := reg.Snapshot().Counters
		for name, v := range want {
			if snap[name] != v || reg.Counter(name).Value() != v {
				t.Fatalf("%s: %s = %d (snapshot) / %d (Counter), want %d", when, name, snap[name], reg.Counter(name).Value(), v)
			}
		}
		if _, ok := snap["bytes_reduce_L3"]; ok {
			t.Fatalf("%s: a span registered a byte counter; only sends may", when)
		}
	}
	check("after sends")
	if rows := o.Traffic().Layers(); len(rows) != 3 {
		t.Fatalf("store holds %d cells, want 3: %+v", len(rows), rows)
	}
	o.Traffic().Reset()
	if rows := o.Traffic().Layers(); len(rows) != 0 {
		t.Fatalf("Reset left cells: %+v", rows)
	}
	check("after Reset")
	sk.ObserveSend(1, 0, comm.MakeTag(comm.KindReduce, 2, 1), 1, 1)
	want["bytes_reduce_L2"], want["values_bytes_encoded"], want["values_bytes_raw"] = 1001, 1235, 1469
	check("after Reset and one more send")
}

// TestTrafficOnlySinkDropsReceives: the sink of a cluster that only
// accounts traffic has no registry to feed.
func TestTrafficOnlySinkDropsReceives(t *testing.T) {
	tr := NewTraffic(2)
	sk := tr.Observer(0)
	tag := comm.MakeTag(comm.KindReduce, 1, 0)
	sk.ObserveSend(0, 1, tag, 10, 10)
	sk.ObserveRecv(1, tag, 10, time.Millisecond, nil)
	sk.ObserveRecv(1, tag, 0, time.Second, &comm.TimeoutError{Tag: tag})
	sk.ObserveRecvGroup(tag, time.Millisecond)
	if rows := tr.Layers(); len(rows) != 1 || rows[0].Bytes != 10 {
		t.Fatalf("rows = %+v, want one 10-byte cell", rows)
	}
}

func TestSinkCountsReceiveSuccessAndTimeout(t *testing.T) {
	o := New(2, 0)
	ro := o.Observer(0)
	tag := comm.MakeTag(comm.KindReduce, 3, 7)
	ro.ObserveRecv(1, tag, 256, 2*time.Millisecond, nil)
	ro.ObserveRecvGroup(tag, time.Millisecond)
	reg := o.Registry()
	if reg.Counter("recv_msgs").Value() != 1 || reg.Counter("recv_bytes").Value() != 256 {
		t.Fatal("success receive not counted")
	}
	if reg.Histogram("recv_wait_ns").Count() != 1 || reg.Histogram("recv_group_wait_ns").Count() != 1 {
		t.Fatal("wait histograms not fed")
	}

	terr := &comm.TimeoutError{Tag: tag, From: []int{1}, Elapsed: 50 * time.Millisecond}
	ro.ObserveRecv(1, tag, 0, terr.Elapsed, terr)
	if reg.Counter("recv_timeouts").Value() != 1 {
		t.Fatal("timeout not counted")
	}
	var errSpan *Span
	for _, sp := range o.Spans() {
		if sp.Err != nil {
			s := sp
			errSpan = &s
		}
	}
	if errSpan == nil {
		t.Fatal("timed-out receive left no error span")
	}
	if !errors.Is(errSpan.Err, comm.ErrTimeout) {
		t.Fatalf("error span holds %v, want a comm.ErrTimeout", errSpan.Err)
	}
	if errSpan.Kind != comm.KindReduce || errSpan.Layer != 3 || errSpan.Node != 0 {
		t.Fatalf("error span misattributed: %+v", errSpan)
	}
	if errSpan.Duration() < 50*time.Millisecond {
		t.Fatalf("error span covers %v, want >= the 50ms wait", errSpan.Duration())
	}

	// Non-timeout errors (e.g. closed transport) are not error spans.
	ro.ObserveRecv(-1, tag, 0, 0, errors.New("closed"))
	if reg.Counter("recv_timeouts").Value() != 1 {
		t.Fatal("non-timeout error counted as timeout")
	}
}

func TestFaultObserverCountsAndMarks(t *testing.T) {
	o := New(4, 0)
	fo := o.FaultObserver()
	fo(2, "drop")
	fo(2, "drop")
	fo(3, "kill")
	fo(1, "custom-event") // unknown events get a lazily created counter
	reg := o.Registry()
	if reg.Counter("fault_drop").Value() != 2 || reg.Counter("fault_kill").Value() != 1 ||
		reg.Counter("fault_custom-event").Value() != 1 {
		t.Fatalf("fault counters wrong: %s", reg.String())
	}
	var instants int
	for _, sp := range o.Spans() {
		if sp.Event != "" {
			instants++
		}
	}
	if instants != 4 {
		t.Fatalf("instant events = %d, want 4", instants)
	}
}

// populate runs a tiny synthetic trace: per-layer spans with shrinking
// byte volumes plus one fault event, on every node.
func populate(o *Observatory) {
	for node := 0; node < o.Machines(); node++ {
		tr := o.Node(node)
		outer := tr.Begin(comm.KindReduce, 0)
		for layer := 1; layer <= 3; layer++ {
			sp := tr.Begin(comm.KindReduce, layer)
			sp.BytesOut = int64(1000 >> layer)
			sp.BytesIn = sp.BytesOut
			sp.Peers = 4
			tr.End(&sp)
		}
		tr.End(&outer)
	}
	o.Node(0).Instant("drop")
}

func TestChromeTraceIsValidAndComplete(t *testing.T) {
	o := New(3, 0)
	populate(o)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	var sawFault, sawLayer bool
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "i" && strings.HasPrefix(ev.Name, "fault:") {
			sawFault = true
		}
		if ev.Ph == "X" && ev.Name == "reduce L2" {
			sawLayer = true
			if ev.Args["bytes_out"].(float64) != 250 {
				t.Fatalf("reduce L2 bytes_out = %v, want 250", ev.Args["bytes_out"])
			}
		}
	}
	if counts["M"] != 3 {
		t.Fatalf("want one process_name metadata event per node, got %d", counts["M"])
	}
	if counts["X"] != 3*4 {
		t.Fatalf("want 12 complete events (3 nodes x (1 outer + 3 layers)), got %d", counts["X"])
	}
	if !sawFault || !sawLayer {
		t.Fatalf("missing fault instant (%v) or layer slice (%v)", sawFault, sawLayer)
	}
}

func TestTimelineShowsShrinkingLayers(t *testing.T) {
	o := New(3, 0)
	populate(o)
	var buf bytes.Buffer
	if err := o.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"reduce L1", "reduce L2", "reduce L3", "fault events: 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := New(2, 0)
	populate(o)
	o.Registry().Counter("reduce_rounds").Inc()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["reduce_rounds"] != 1 {
		t.Fatalf("/metrics reduce_rounds = %d", snap.Counters["reduce_rounds"])
	}
	var doc map[string]any
	if err := json.Unmarshal(get("/trace"), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if !strings.Contains(string(get("/timeline")), "reduce L1") {
		t.Fatal("/timeline missing layer rows")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	o := New(1, 0)
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.Addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilServer *Server
	if err := nilServer.Close(); err != nil {
		t.Fatal("nil server Close must be a no-op")
	}
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil Observatory) must error")
	}
}

// TestConcurrentRecordingIsRaceFree hammers every concurrent entry
// point at once; run under -race it proves the recording primitives
// synchronize correctly.
func TestConcurrentRecordingIsRaceFree(t *testing.T) {
	o := New(4, 64)
	var wg sync.WaitGroup
	for node := 0; node < 4; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			tr := o.Node(node)
			ro := o.Observer(node)
			tag := comm.MakeTag(comm.KindReduce, 1, 0)
			for i := 0; i < 500; i++ {
				sp := tr.Begin(comm.KindReduce, 1)
				sp.BytesOut = 10
				tr.End(&sp)
				ro.ObserveSend(node, (node+i)%4, tag, 10, 10)
				ro.ObserveRecv(0, tag, 10, time.Microsecond, nil)
				o.Transport().DedupHits.Inc()
			}
		}(node)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = o.Spans()
			_ = o.Registry().Snapshot()
		}
	}()
	wg.Wait()
	if got := o.Registry().Counter("bytes_reduce_L1").Value(); got != 4*500*10 {
		t.Fatalf("bytes_reduce_L1 = %d, want %d", got, 4*500*10)
	}
}
