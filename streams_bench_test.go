package kylix_test

import (
	"sync"
	"testing"
	"time"

	"kylix"
)

// The streams benchmarks measure aggregate multi-tenant throughput on
// the TCP transport, where passes spend real time blocked on socket
// round-trips: one iteration is the same four tenant passes, run
// back-to-back (Serial) or concurrently over the shared fabric
// (Concurrent). scripts/bench.sh --gate requires the concurrent
// aggregate to beat the serial one — the whole point of multiplexing
// streams over shared transports is overlapping those waits.

const benchStreamTenants = 4

func benchStreamsSetup(b *testing.B) (*kylix.Cluster, []*kylix.Stream, []*streamWorkload) {
	b.Helper()
	const m = 8
	c, err := kylix.NewCluster(m,
		kylix.WithTransport(kylix.TransportTCP),
		kylix.WithDegrees(4, 2),
		kylix.WithRecvTimeout(30*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	streams := make([]*kylix.Stream, benchStreamTenants)
	loads := make([]*streamWorkload, benchStreamTenants)
	for k := range streams {
		if streams[k], err = c.OpenStream(); err != nil {
			b.Fatal(err)
		}
		loads[k] = newStreamWorkload(b, k, m, 4096, 24)
	}
	// One warm-up pass per stream so connection setup is off the clock.
	for k, st := range streams {
		if _, err := loads[k].collect(st.Run, m, 1); err != nil {
			b.Fatal(err)
		}
	}
	return c, streams, loads
}

func benchPass(b *testing.B, st *kylix.Stream, w *streamWorkload) {
	b.Helper()
	if _, err := w.collect(st.Run, 8, 2); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStreamsSerial(b *testing.B) {
	c, streams, loads := benchStreamsSetup(b)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, st := range streams {
			benchPass(b, st, loads[k])
		}
	}
}

func BenchmarkStreamsConcurrent(b *testing.B) {
	c, streams, loads := benchStreamsSetup(b)
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k, st := range streams {
			wg.Add(1)
			go func(k int, st *kylix.Stream) {
				defer wg.Done()
				benchPass(b, st, loads[k])
			}(k, st)
		}
		wg.Wait()
	}
}
