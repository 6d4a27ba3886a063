package kylix_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"kylix"
	"kylix/internal/core"
)

// The quantization soak is the acceptance test for wire-level value
// quantization: a replicated cluster runs multi-round allreduces over a
// persistent Config (so the error-feedback residuals evolve across
// rounds) in fp16 and int8, fault-free and under the seeded chaos
// schedule, on both transports. Three properties are asserted:
//
//  1. Determinism — per-rank results are bit-identical between a
//     fault-free quantized run, a chaotic quantized run, and a rerun of
//     the chaotic run (same ValuesDigest per rank per round). Lossy
//     encodings are pure functions of their inputs, and the protocol
//     fixes the combine order, so chaos may only perturb timing.
//  2. Bounded error — against the bit-exact QuantOff reference, the
//     max error relative to the result's magnitude stays under the
//     stated per-mode bound (fp16: 2e-2, int8: 1.5e-1; one quantize
//     hop per layer per direction, each within half a step).
//  3. The encoding actually round-trips under replication, duplication
//     and reordering — any mis-sized or misrouted block fails the run.
const (
	quantSoakRounds = 5
	quantFP16Bound  = 2e-2
	quantINT8Bound  = 1.5e-1
)

// quantSoakRun drives quantSoakRounds reductions over one Config per
// node and returns per-round per-physical-rank results.
func quantSoakRun(t *testing.T, transport kylix.Transport, quant kylix.Quantization, plan kylix.FaultPlan) [][][]float32 {
	t.Helper()
	opts := append(soakOpts(transport, plan), kylix.WithQuantization(quant))
	cluster, err := kylix.NewCluster(soakPhys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	results := make([][][]float32, quantSoakRounds)
	for r := range results {
		results[r] = make([][]float32, soakPhys)
	}
	var mu sync.Mutex
	err = cluster.Run(func(node *kylix.Node) error {
		q := node.Rank()
		neighbour := int32(100 + (q+1)%soakLogical)
		out := []int32{0, 1, int32(100 + q)}
		in := []int32{0, 1, neighbour}
		red, err := node.Configure(in, out)
		if err != nil {
			return err
		}
		for r := 0; r < quantSoakRounds; r++ {
			// Features of comparable magnitude: int8's per-block scale is
			// set by the block maximum, so its stated bound presumes values
			// within an order of magnitude or so of each other (a feature
			// 1000x smaller than its blockmates is below one quantization
			// step by construction; error feedback recovers it over rounds,
			// not within one).
			vals := []float32{
				float32(q+1) * 0.1 * float32(r+1),
				1.0 / float32(q+2),
				0.5*float32(q) + 0.3*float32(r) + 1,
			}
			res, err := red.Reduce(vals)
			if err != nil {
				return err
			}
			mu.Lock()
			results[r][node.PhysicalRank()] = append([]float32(nil), res...)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v %v soak: %v", transport, quant, err)
	}
	return results
}

// quantChaosPlan mirrors the reconfigure soak's schedule: every
// non-crash fault class at once, confined to the upper replica half.
func quantChaosPlan() kylix.FaultPlan {
	return kylix.FaultPlan{
		Seed:      53,
		Faulty:    []int{8, 9, 10, 11, 12, 13, 14, 15},
		Drop:      0.10,
		Duplicate: 0.15,
		Delay:     0.25,
		MaxDelay:  2 * time.Millisecond,
		Reorder:   0.08,
	}
}

func quantRelErr(got, ref []float32) float64 {
	maxAbs, maxErr := 0.0, 0.0
	for i := range ref {
		if a := math.Abs(float64(ref[i])); a > maxAbs {
			maxAbs = a
		}
		if e := math.Abs(float64(got[i] - ref[i])); e > maxErr {
			maxErr = e
		}
	}
	if maxAbs == 0 {
		return maxErr
	}
	return maxErr / maxAbs
}

func testQuantSoak(t *testing.T, transport kylix.Transport, quant kylix.Quantization, bound float64) {
	// Recycled arena memory is poisoned at every flip: a pass that read a
	// value it did not write in that pass would turn these digests to NaN.
	core.PoisonArena(true)
	defer core.PoisonArena(false)
	exact := quantSoakRun(t, transport, kylix.QuantOff, kylix.FaultPlan{Seed: 42})
	clean := quantSoakRun(t, transport, quant, kylix.FaultPlan{Seed: 42})
	chaos := quantSoakRun(t, transport, quant, quantChaosPlan())
	rerun := quantSoakRun(t, transport, quant, quantChaosPlan())

	for r := 0; r < quantSoakRounds; r++ {
		for p := 0; p < soakPhys; p++ {
			if e := quantRelErr(clean[r][p], exact[r][p]); e > bound {
				t.Errorf("round %d rank %d: max relative error %.4g > %.4g vs exact run", r, p, e, bound)
			}
			if !bitsEqual(chaos[r][p], clean[r][p]) {
				t.Errorf("round %d rank %d: chaotic quantized result differs from fault-free quantized result", r, p)
			}
			if kylix.ValuesDigest(rerun[r][p]) != kylix.ValuesDigest(chaos[r][p]) {
				t.Errorf("round %d rank %d: chaos rerun digest differs (nondeterministic quantized reduce)", r, p)
			}
		}
	}
}

func TestQuantizedChaosSoakFP16(t *testing.T) {
	testQuantSoak(t, kylix.TransportMemory, kylix.QuantFP16, quantFP16Bound)
}

func TestQuantizedChaosSoakINT8(t *testing.T) {
	testQuantSoak(t, kylix.TransportMemory, kylix.QuantINT8, quantINT8Bound)
}

func TestQuantizedChaosSoakFP16TCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	testQuantSoak(t, kylix.TransportTCP, kylix.QuantFP16, quantFP16Bound)
}

func TestQuantizedChaosSoakINT8TCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short")
	}
	testQuantSoak(t, kylix.TransportTCP, kylix.QuantINT8, quantINT8Bound)
}
