package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// rewriteEndpoint hands its machine one doctored piece: the first
// payload RecvGroup delivers on the given kind and layer goes through
// rewrite, which may replace the payload and the sender it is
// attributed to. Everything else passes through.
type rewriteEndpoint struct {
	comm.Endpoint
	kind    comm.Kind
	layer   int
	rewrite func(from int, p comm.Payload) (int, comm.Payload)
	done    bool
}

func (e *rewriteEndpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	from, p, err := e.Endpoint.RecvGroup(groups, tag)
	if err == nil && !e.done && tag.Kind() == e.kind && tag.Layer() == e.layer {
		e.done = true
		from, p = e.rewrite(from, p)
	}
	return from, p, err
}

func qvals(mode sparse.Quantization, n int) *comm.QVals {
	return &comm.QVals{Mode: mode, N: n, Data: make([]byte, sparse.QuantizedSize(mode, n))}
}

// pieceLen is the value count of a received piece in either wire form.
func pieceLen(p comm.Payload) int {
	if q, ok := p.(*comm.QVals); ok {
		return q.N
	}
	return len(p.(*comm.Floats).Vals)
}

// TestLandStepRejections doctors one in-flight piece on its way into
// rank 0 — in each direction, at each layer — and requires Reduce to
// fail there with an error naming the rank, the direction and the layer:
// a piece that does not match the configured wire form must never be
// folded, never panic the machine and never leave it waiting.
func TestLandStepRejections(t *testing.T) {
	degrees := []int{2, 2}
	bf := topo.MustNew(degrees)
	outsider := bf.M() - 1 // shares neither of rank 0's layer groups
	for layer := 1; layer <= len(degrees); layer++ {
		if memberIndex(bf.Group(0, layer), outsider) >= 0 {
			t.Fatalf("rank %d is in rank 0's layer-%d group", outsider, layer)
		}
	}
	cases := []struct {
		name    string
		quant   sparse.Quantization
		rewrite func(from int, p comm.Payload) (int, comm.Payload)
		want    string
	}{
		{"floats wrong length", sparse.QuantOff, func(from int, p comm.Payload) (int, comm.Payload) {
			return from, &comm.Floats{Vals: make([]float32, pieceLen(p)+1)}
		}, "values, want"},
		{"qvals where floats expected", sparse.QuantOff, func(from int, p comm.Payload) (int, comm.Payload) {
			return from, qvals(sparse.QuantFP16, pieceLen(p))
		}, "unexpected payload *comm.QVals"},
		{"floats where qvals expected", sparse.QuantFP16, func(from int, p comm.Payload) (int, comm.Payload) {
			return from, &comm.Floats{Vals: make([]float32, pieceLen(p))}
		}, "unexpected payload *comm.Floats"},
		{"qvals of the other mode", sparse.QuantFP16, func(from int, p comm.Payload) (int, comm.Payload) {
			return from, qvals(sparse.QuantINT8, pieceLen(p))
		}, "unexpected payload *comm.QVals"},
		{"qvals wrong count", sparse.QuantINT8, func(from int, p comm.Payload) (int, comm.Payload) {
			return from, qvals(sparse.QuantINT8, pieceLen(p)+1)
		}, "values, want"},
		{"sender outside the group", sparse.QuantOff, func(from int, p comm.Payload) (int, comm.Payload) {
			return outsider, p
		}, "outside group"},
	}
	ws := randWorkloads(rand.New(rand.NewSource(31)), bf.M(), 256, 48, 1, true)
	for _, tc := range cases {
		for _, kind := range []comm.Kind{comm.KindReduce, comm.KindGather} {
			for layer := 1; layer <= len(degrees); layer++ {
				t.Run(fmt.Sprintf("%s/%v/layer%d", tc.name, kind, layer), func(t *testing.T) {
					net := memnet.New(bf.M())
					defer net.Close()
					var victimErr error
					var wg sync.WaitGroup
					for r := 0; r < bf.M(); r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							ep := net.Endpoint(r)
							if r == 0 {
								ep = &rewriteEndpoint{Endpoint: ep, kind: kind, layer: layer, rewrite: tc.rewrite}
								// The victim's failure strands its peers mid-pass;
								// closing the network fails their receives at once.
								defer net.Close()
								defer func() {
									if rec := recover(); rec != nil {
										victimErr = fmt.Errorf("panic: %v", rec)
									}
								}()
							}
							m, err := NewMachine(ep, bf, Options{Quant: tc.quant})
							if err == nil {
								var cfg *Config
								if cfg, err = m.Configure(ws[r].in, ws[r].out); err == nil {
									_, err = cfg.Reduce(ws[r].vals)
								}
							}
							if r == 0 {
								victimErr = err
							}
						}(r)
					}
					wg.Wait()
					if victimErr == nil {
						t.Fatal("Reduce accepted the doctored piece")
					}
					where := fmt.Sprintf("rank 0 %v layer %d", kind, layer)
					if msg := victimErr.Error(); !strings.Contains(msg, where) || !strings.Contains(msg, tc.want) {
						t.Fatalf("error %q does not name %q and %q", msg, where, tc.want)
					}
				})
			}
		}
	}
}
