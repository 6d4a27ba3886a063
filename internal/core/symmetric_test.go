package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/tcpnet"
	"kylix/internal/topo"
)

// refDigests computes, with no messaging and none of the pass's
// kernels, the Config digest every rank must end up with for ws: the
// protocol's data flow run sequentially over global knowledge, each
// direction's union and maps built on its own by the tree-union
// reference. It is the dense reference of the configuration pass, as
// refReduce is of the reduction.
func refDigests(bf *topo.Butterfly, ws []workload) []uint64 {
	cfgs := make([]*Config, bf.M())
	inCur, outCur := make([]sparse.Set, bf.M()), make([]sparse.Set, bf.M())
	for r := range cfgs {
		cfgs[r] = &Config{inSet: ws[r].in, outSet: ws[r].out, layers: make([]layerState, bf.Layers())}
		inCur[r], outCur[r] = ws[r].in, ws[r].out
	}
	for layer := 1; layer <= bf.Layers(); layer++ {
		d := bf.Degree(layer)
		for r, cfg := range cfgs {
			ls, parent := &cfg.layers[layer-1], bf.RangeAt(r, layer-1)
			ls.group = bf.Group(r, layer)
			ls.inOffsets = sparse.SplitOffsets(inCur[r], parent, d)
			ls.outOffsets = sparse.SplitOffsets(outCur[r], parent, d)
		}
		for r, cfg := range cfgs {
			ls := &cfg.layers[layer-1]
			me := memberIndex(ls.group, r)
			inP, outP := make([]sparse.Set, d), make([]sparse.Set, d)
			for t, member := range ls.group {
				from := &cfgs[member].layers[layer-1]
				inP[t] = sparse.Piece(inCur[member], from.inOffsets, me)
				outP[t] = sparse.Piece(outCur[member], from.outOffsets, me)
			}
			ls.inUnion, ls.inMaps = sparse.UnionWithMaps(inP)
			ls.outUnion, ls.outMaps = sparse.UnionWithMaps(outP)
		}
		for r, cfg := range cfgs {
			inCur[r], outCur[r] = cfg.layers[layer-1].inUnion, cfg.layers[layer-1].outUnion
		}
	}
	digests := make([]uint64, len(cfgs))
	for r, cfg := range cfgs {
		cfg.bottomMap, cfg.missing = sparse.PartialPositionMap(inCur[r], outCur[r])
		digests[r] = cfg.Digest()
	}
	return digests
}

// runOnTransport runs fn on every rank of an m-machine cluster over the
// in-memory fabric or real loopback sockets.
func runOnTransport(t *testing.T, tcp bool, m int, fn func(ep comm.Endpoint) error) {
	t.Helper()
	if !tcp {
		n := memnet.New(m)
		defer n.Close()
		if err := memnet.Run(n, fn); err != nil {
			t.Fatal(err)
		}
		return
	}
	nodes, err := tcpnet.LocalCluster(m, tcpnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, m)
	var wg sync.WaitGroup
	for r, node := range nodes {
		wg.Add(1)
		go func(r int, ep comm.Endpoint) {
			defer wg.Done()
			errs[r] = fn(ep)
		}(r, node)
	}
	wg.Wait()
	if err := tcpnet.CloseAll(nodes); err != nil {
		t.Error(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// symmetricWorkloads draws one set per machine, used as both in and out
// (one slice: the aliased form the root API produces for a caller that
// reduces over one vertex set).
func symmetricWorkloads(rng *rand.Rand, m, space, avg int) []workload {
	ws := make([]workload, m)
	for r := range ws {
		idx := make([]int32, 1+rng.Intn(2*avg))
		for i := range idx {
			idx[i] = int32(rng.Intn(space))
		}
		s := sparse.MustNewSet(idx)
		vals := make([]float32, len(s))
		for i := range vals {
			vals[i] = float32(rng.Intn(100)) / 4
		}
		ws[r] = workload{in: s, out: s, vals: vals}
	}
	return ws
}

// TestSymmetricLayersMatchGeneralPath checks the one-union-per-layer
// path against the configuration reference on both transports: the same
// sets aliased (in and out one slice), equal but separate, and with one
// machine's out set one key larger than its in set — which leaves
// exactly one layer-1 piece, hence one machine's layer-1 state and one
// of the layer-2 pieces it ships, asymmetric while every other layer of
// every machine takes the shared path. A Config is then walked
// symmetric → asymmetric → symmetric by Reconfigure: maps shared by two
// directions must survive one direction being rebuilt.
func TestSymmetricLayersMatchGeneralPath(t *testing.T) {
	const space = 600
	for _, tcp := range []bool{false, true} {
		for _, degrees := range [][]int{{2, 2, 2}, {4, 2}} {
			t.Run(fmt.Sprintf("tcp=%v/%v", tcp, degrees), func(t *testing.T) {
				bf := topo.MustNew(degrees)
				rng := rand.New(rand.NewSource(41))
				aliased := symmetricWorkloads(rng, bf.M(), space, 60)
				cloned := make([]workload, len(aliased))
				for r, w := range aliased {
					cloned[r] = workload{in: w.in, out: w.out.Clone(), vals: w.vals}
				}
				// Machine 1 contributes one feature nobody asks for.
				oneOff := append([]workload(nil), aliased...)
				extra := sparse.MustNewSet(append(aliased[1].out.Indices(), space+1))
				oneOff[1] = workload{in: aliased[1].in, out: extra, vals: make([]float32, len(extra))}
				for i := range oneOff[1].vals {
					oneOff[1].vals[i] = float32(i % 7)
				}
				moved := symmetricWorkloads(rng, bf.M(), space, 60)

				variants := []struct {
					name string
					ws   []workload
				}{{"aliased", aliased}, {"cloned", cloned}, {"one-off", oneOff}, {"moved", moved}}
				wantDigest := make([][]uint64, len(variants))
				wantRes := make([][][]float32, len(variants))
				for v, variant := range variants {
					wantDigest[v] = refDigests(bf, variant.ws)
					wantRes[v] = refReduce(variant.ws, sparse.Sum, 1)
				}
				check := func(r, v int, what string, cfg *Config) error {
					if got := cfg.Digest(); got != wantDigest[v][r] {
						t.Errorf("rank %d %s %s: digest %#x, reference %#x", r, what, variants[v].name, got, wantDigest[v][r])
					}
					res, err := cfg.Reduce(variants[v].ws[r].vals)
					if err != nil {
						return err
					}
					if !almostEqual(res, wantRes[v][r], 1e-4) {
						t.Errorf("rank %d %s %s: reduce differs from the dense reference", r, what, variants[v].name)
					}
					return nil
				}
				runOnTransport(t, tcp, bf.M(), func(ep comm.Endpoint) error {
					r := ep.Rank()
					m, err := NewMachine(ep, bf, Options{})
					if err != nil {
						return err
					}
					for v, variant := range variants {
						cfg, err := m.Configure(variant.ws[r].in, variant.ws[r].out)
						if err != nil {
							return err
						}
						if err := check(r, v, "Configure", cfg); err != nil {
							return err
						}
					}
					cfg, err := m.Configure(aliased[r].in, aliased[r].out)
					if err != nil {
						return err
					}
					// aliased twice: the second pass is all markers.
					for _, v := range []int{0, 0, 2, 0, 3, 2, 1} {
						if err := cfg.Reconfigure(variants[v].ws[r].in, variants[v].ws[r].out); err != nil {
							return err
						}
						if err := check(r, v, "Reconfigure to", cfg); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}

// TestSymmetricLayersShareState pins what the shared path shares, on
// both transports: after Configure(s, s) every layer holds one union
// and one map family and the bottom turns around by identity (no map),
// and a one-key difference between in and out un-shares only the
// layers the key travels through.
func TestSymmetricLayersShareState(t *testing.T) {
	bf := topo.MustNew([]int{2, 2, 2})
	ws := symmetricWorkloads(rand.New(rand.NewSource(43)), bf.M(), 600, 60)
	shared := func(ls *layerState) bool {
		return len(ls.inUnion) > 0 && &ls.inUnion[0] == &ls.outUnion[0] && &ls.inMaps[0] == &ls.outMaps[0]
	}
	check := func(r int, what string, cfg *Config, wantShared func(ls *layerState) bool) {
		for i := range cfg.layers {
			ls := &cfg.layers[i]
			if want := wantShared(ls); shared(ls) != want {
				t.Errorf("rank %d %s layer %d: shares state %v, want %v", r, what, i+1, shared(ls), want)
			}
		}
		if bottom := &cfg.layers[len(cfg.layers)-1]; (cfg.bottomMap == nil) != shared(bottom) {
			t.Errorf("rank %d %s: bottom map of %d entries, bottom layer shares state %v", r, what, len(cfg.bottomMap), shared(bottom))
		}
	}
	for _, tcp := range []bool{false, true} {
		runOnTransport(t, tcp, bf.M(), func(ep comm.Endpoint) error {
			r := ep.Rank()
			m, err := NewMachine(ep, bf, Options{})
			if err != nil {
				return err
			}
			cfg, err := m.Configure(ws[r].in, ws[r].out)
			if err != nil {
				return err
			}
			check(r, fmt.Sprintf("tcp=%v symmetric", tcp), cfg, func(*layerState) bool { return true })
			// One extra out key on machine 1: it reaches exactly one machine
			// per layer, and only those hold two unions.
			out := ws[r].out
			if r == 1 {
				out = sparse.MustNewSet(append(out.Indices(), 601))
			}
			if cfg, err = m.Configure(ws[r].in, out); err != nil {
				return err
			}
			key := sparse.MakeKey(601)
			check(r, fmt.Sprintf("tcp=%v one-off", tcp), cfg, func(ls *layerState) bool { return !ls.outUnion.Contains(key) })
			return nil
		})
	}
}
