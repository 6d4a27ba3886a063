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

// rewriteEndpoint hands its machine one doctored piece: payloads
// RecvGroup delivers on the given kind and layer go through rewrite,
// which may replace the payload and the sender it is attributed to,
// until it does. Everything else passes through.
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
		was, by := p, from
		from, p = e.rewrite(from, p)
		e.done = p != was || from != by
	}
	return from, p, err
}

// runWithVictim runs body on every rank of an in-memory cluster, with
// rank 0 — the victim — behind a rewriteEndpoint for the given kind and
// layer, and returns the victim's error (a panic included). The
// victim's failure strands its peers mid-pass; closing the network when
// it returns fails their receives at once.
func runWithVictim(bf *topo.Butterfly, kind comm.Kind, layer int, rewrite func(int, comm.Payload) (int, comm.Payload), body func(r int, ep comm.Endpoint) error) (victimErr error) {
	net := memnet.New(bf.M())
	defer net.Close()
	var wg sync.WaitGroup
	for r := 0; r < bf.M(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := net.Endpoint(r)
			if r != 0 {
				_ = body(r, ep) // stranded by design
				return
			}
			defer net.Close()
			defer func() {
				if rec := recover(); rec != nil {
					victimErr = fmt.Errorf("panic: %v", rec)
				}
			}()
			victimErr = body(r, &rewriteEndpoint{Endpoint: ep, kind: kind, layer: layer, rewrite: rewrite})
		}(r)
	}
	wg.Wait()
	return victimErr
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
					victimErr := runWithVictim(bf, kind, layer, tc.rewrite, func(r int, ep comm.Endpoint) error {
						m, err := NewMachine(ep, bf, Options{Quant: tc.quant})
						if err != nil {
							return err
						}
						cfg, err := m.Configure(ws[r].in, ws[r].out)
						if err != nil {
							return err
						}
						_, err = cfg.Reduce(ws[r].vals)
						return err
					})
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

// TestConfigurationRejectsEscapingPieces doctors one configuration
// piece on its way into rank 0 — at each layer, in each of the three
// entry points — and requires the pass to fail there with an error
// naming the rank, the entry point, the layer and the sender, before
// anything is folded. The doctorings are everything the land step
// checks: a direction lying outside the hash sub-range rank 0 owns at
// the layer (an escaping in piece would otherwise join the in union and
// be split, at the next layer, as if it were in range), values present
// in a pass that is not fused or absent in one that is, a value count
// that does not match the out piece, a same-marker or a delta for a
// direction the Config holds no stored piece of, and a delta that does
// not fit the stored piece: a removed position past it, an added key it
// keeps already or one outside the sub-range, a length its counts do
// not give. Every failure poisons the Config the pass ran over.
func TestConfigurationRejectsEscapingPieces(t *testing.T) {
	degrees := []int{2, 2}
	bf := topo.MustNew(degrees)
	ws := randWorkloads(rand.New(rand.NewSource(37)), bf.M(), 256, 48, 1, true)
	// Rank 0 owns the bottom of the hash space at every layer; the top
	// key of the space is outside all of its sub-ranges.
	escaping := sparse.Set{sparse.FullRange().Hi - 1}
	for layer := 1; layer <= len(degrees); layer++ {
		if err := sparse.CheckInRange(escaping, bf.RangeAt(0, layer)); err == nil {
			t.Fatalf("test key lies inside rank 0's layer-%d range", layer)
		}
	}
	type pass struct {
		name string
		kind comm.Kind
		// fused: values ride down. stored: the doctored pass runs over a
		// Config an earlier pass built, whose pieces the endpoint lets
		// through.
		fused, stored bool
		run           func(m *Machine, w workload) error
	}
	passes := []pass{
		{"config", comm.KindConfig, false, false, func(m *Machine, w workload) error {
			_, err := m.Configure(w.in, w.out)
			return err
		}},
		{"config+reduce", comm.KindConfigReduce, true, false, func(m *Machine, w workload) error {
			_, _, err := m.ConfigureReduce(w.in, w.out, w.vals)
			return err
		}},
		{"reconfigure", comm.KindConfig, false, true, func(m *Machine, w workload) error {
			cfg, err := m.Configure(w.in, w.out)
			if err != nil {
				return err
			}
			return cfg.Reconfigure(w.in, w.out)
		}},
	}
	any := func(pass) bool { return true }
	fused := func(p pass) bool { return p.fused }
	fresh := func(p pass) bool { return !p.stored }
	stored := func(p pass) bool { return p.stored }
	// inDelta spells the in direction as a delta against was, the piece
	// the sender shipped in the pass that built the Config.
	inDelta := func(q *comm.ConfigPiece, d *comm.PieceDelta) { q.In, q.InSame, q.InDelta = nil, false, d }
	cases := []struct {
		name    string
		applies func(pass) bool
		doctor  func(q *comm.ConfigPiece, was sparse.Set)
		// where follows "rank 0 <pass> layer <n>: " in the error, want is
		// the complaint.
		where, want string
	}{
		{"in", any, func(q *comm.ConfigPiece, _ sparse.Set) { q.In, q.InSame = escaping, false }, "in piece from", "escapes range"},
		{"out", any, func(q *comm.ConfigPiece, _ sparse.Set) { q.Out, q.OutSame = escaping, false }, "out piece from", "escapes range"},
		{"no values", fused, func(q *comm.ConfigPiece, _ sparse.Set) { q.HasVals, q.Vals = false, nil }, "piece from", "carries no values"},
		{"one value short", fused, func(q *comm.ConfigPiece, _ sparse.Set) { q.Vals = q.Vals[:len(q.Vals)-1] }, "piece from", "values, want"},
		{"one value over", fused, func(q *comm.ConfigPiece, _ sparse.Set) { q.Vals = append(q.Vals[:len(q.Vals):len(q.Vals)], 0) },
			"piece from", "values, want"},
		{"values", func(p pass) bool { return !p.fused }, func(q *comm.ConfigPiece, _ sparse.Set) { q.HasVals, q.Vals = true, make([]float32, len(q.Out)) },
			"piece from", "carries values"},
		{"in marker", fresh, func(q *comm.ConfigPiece, _ sparse.Set) { q.In, q.InSame = nil, true },
			"in piece from", "no stored piece"},
		{"out marker", fresh, func(q *comm.ConfigPiece, _ sparse.Set) { q.Out, q.OutSame = nil, true },
			"out piece from", "no stored piece"},
		{"in delta", fresh, func(q *comm.ConfigPiece, _ sparse.Set) { inDelta(q, &comm.PieceDelta{Removed: []int32{0}}) },
			"in piece from", "no stored piece"},
		{"out delta", fresh, func(q *comm.ConfigPiece, _ sparse.Set) {
			q.Out, q.OutSame, q.OutDelta = nil, false, &comm.PieceDelta{Removed: []int32{0}}
		}, "out piece from", "no stored piece"},
		{"delta position past the piece", stored, func(q *comm.ConfigPiece, was sparse.Set) {
			inDelta(q, &comm.PieceDelta{Removed: []int32{int32(len(was))}, Len: len(was) - 1})
		}, "in piece from", "delta removes position"},
		{"delta adds a kept key", stored, func(q *comm.ConfigPiece, was sparse.Set) {
			inDelta(q, &comm.PieceDelta{Added: was[len(was)-1:], Len: len(was) + 1})
		}, "in piece from", "which the kept piece holds"},
		{"delta adds an escaping key", stored, func(q *comm.ConfigPiece, was sparse.Set) {
			inDelta(q, &comm.PieceDelta{Added: escaping, Len: len(was) + 1})
		}, "in piece from", "escapes range"},
		{"delta length", stored, func(q *comm.ConfigPiece, was sparse.Set) {
			inDelta(q, &comm.PieceDelta{Removed: []int32{0}, Len: len(was)})
		}, "in piece from", "delta length"},
	}
	for _, pass := range passes {
		for _, tc := range cases {
			if !tc.applies(pass) {
				continue
			}
			for layer := 1; layer <= len(degrees); layer++ {
				t.Run(fmt.Sprintf("%s/%s/layer%d", pass.name, tc.name, layer), func(t *testing.T) {
					// A stored pass's first pieces build the Config and pass
					// through; each sender's in piece is what a delta from it
					// is spelled against. A delta needs a key to keep.
					letThrough, was := 0, map[int]sparse.Set{}
					if pass.stored {
						letThrough = degrees[layer-1]
					}
					rewrite := func(from int, p comm.Payload) (int, comm.Payload) {
						q := p.(*comm.ConfigPiece)
						if letThrough > 0 {
							letThrough--
							was[from] = q.In
							return from, p
						}
						if pass.stored && len(was[from]) == 0 {
							return from, p
						}
						doctored := &comm.ConfigPiece{In: q.In, Out: q.Out, InSame: q.InSame, OutSame: q.OutSame,
							InDelta: q.InDelta, OutDelta: q.OutDelta, HasVals: q.HasVals, Vals: q.Vals}
						tc.doctor(doctored, was[from])
						return from, doctored
					}
					victimErr := runWithVictim(bf, pass.kind, layer, rewrite, func(r int, ep comm.Endpoint) error {
						m, err := NewMachine(ep, bf, Options{})
						if err != nil {
							return err
						}
						if err = pass.run(m, ws[r]); err != nil && !m.cfg.base.poisoned {
							return fmt.Errorf("%w, and the Config is not poisoned", err)
						}
						return err
					})
					if victimErr == nil {
						t.Fatal("the pass accepted the doctored piece")
					}
					if strings.Contains(victimErr.Error(), "not poisoned") {
						t.Fatal(victimErr)
					}
					where := fmt.Sprintf("rank 0 %s layer %d: %s", pass.name, layer, tc.where)
					if msg := victimErr.Error(); !strings.Contains(msg, where) || !strings.Contains(msg, tc.want) {
						t.Fatalf("error %q does not name %q and %q", msg, where, tc.want)
					}
				})
			}
		}
	}
}
