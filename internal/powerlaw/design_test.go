package powerlaw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPredictShape(t *testing.T) {
	n := int64(1 << 20)
	lambda0, err := SolveLambda(n, 1.0, 0.21)
	if err != nil {
		t.Fatal(err)
	}
	stats := Predict(n, 1.0, lambda0, []int{8, 4, 2})
	if len(stats) != 4 {
		t.Fatalf("want 4 node layers, got %d", len(stats))
	}
	if stats[0].Aggregated != 1 || stats[3].Aggregated != 64 {
		t.Fatalf("aggregation counts wrong: %+v", stats)
	}
	if math.Abs(stats[0].Density-0.21) > 1e-6 {
		t.Errorf("layer 0 density = %g, want 0.21", stats[0].Density)
	}
	// Density grows (more collisions), data per node shrinks: the Kylix
	// profile.
	for i := 1; i < len(stats); i++ {
		if stats[i].Density < stats[i-1].Density {
			t.Errorf("density not monotone at layer %d", i)
		}
		if stats[i].ElemsPerNode > stats[i-1].ElemsPerNode {
			t.Errorf("per-node data grew at layer %d: %g > %g",
				i, stats[i].ElemsPerNode, stats[i-1].ElemsPerNode)
		}
	}
}

func TestPredictTrafficKylixShape(t *testing.T) {
	// The Figure 5 claim: total communication volume decreases layer by
	// layer, and the sum over all layers is a small constant times the
	// top layer (near-optimality).
	n := int64(1 << 20)
	for _, tc := range []struct {
		density float64
		degrees []int
	}{
		{0.21, []int{8, 4, 2}},
		{0.035, []int{16, 4}},
	} {
		lambda0, err := SolveLambda(n, 1.0, tc.density)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := PredictTraffic(n, 1.0, lambda0, tc.degrees)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i, l := range layers {
			total += l.TotalElems
			if i > 0 && l.TotalElems > layers[i-1].TotalElems {
				t.Errorf("density %g: volume grew at layer %d", tc.density, l.Layer)
			}
		}
		if ratio := total / layers[0].TotalElems; ratio > float64(len(layers)) {
			t.Errorf("density %g: total/top ratio %g exceeds layer count", tc.density, ratio)
		}
	}
}

func TestPredictTrafficRejectsBadDegree(t *testing.T) {
	if _, err := PredictTraffic(100, 1, 1, []int{4, 0}); err == nil {
		t.Fatal("want error for zero degree")
	}
}

func TestDesignTwitterMatchesPaper(t *testing.T) {
	// Paper §VII-A: Twitter followers graph, 64 nodes, partition density
	// 0.21, n = 60M vertices, 4-byte elements, 5 MB packet floor
	// => optimal degrees 8 x 4 x 2 (with the rank-frequency exponent
	// alpha = 0.8, in the 0.5-2 band the paper cites for real data).
	degrees, err := Design(DesignInput{
		N:         60_000_000,
		Alpha:     0.8,
		Density0:  0.21,
		Machines:  64,
		ElemBytes: 4,
		MinPacket: 5 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 4, 2}
	if len(degrees) != len(want) {
		t.Fatalf("Design = %v, want %v", degrees, want)
	}
	for i := range want {
		if degrees[i] != want[i] {
			t.Fatalf("Design = %v, want %v", degrees, want)
		}
	}
}

func TestDesignYahooShape(t *testing.T) {
	// Yahoo web graph: n = 1.4B, density 0.035. The paper reports 16x4;
	// the literal workflow with 4-byte elements admits degree 32 at the
	// top (196MB/5MB = 39). We assert the structural properties the
	// paper's design exhibits: exactly two layers, steeply decreasing,
	// product 64. With MaxDegree=16 (a practical fan-out cap), the
	// paper's exact 16x4 comes out.
	degrees, err := Design(DesignInput{
		N:         1_400_000_000,
		Alpha:     1.0,
		Density0:  0.035,
		Machines:  64,
		ElemBytes: 4,
		MinPacket: 5 << 20,
		MaxDegree: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(degrees) != 2 || degrees[0] != 16 || degrees[1] != 4 {
		t.Fatalf("Design = %v, want [16 4]", degrees)
	}
}

func TestDesignInvariants(t *testing.T) {
	for _, m := range []int{2, 4, 6, 12, 32, 64, 128} {
		for _, density := range []float64{0.01, 0.2, 0.8} {
			degrees, err := Design(DesignInput{
				N: 1 << 22, Alpha: 1.0, Density0: density,
				Machines: m, ElemBytes: 4, MinPacket: 64 << 10,
			})
			if err != nil {
				t.Fatalf("m=%d density=%g: %v", m, density, err)
			}
			prod := 1
			for _, d := range degrees {
				if d < 2 {
					t.Fatalf("m=%d: degree %d < 2", m, d)
				}
				prod *= d
			}
			// Degrees decrease down the layers whenever the packet floor
			// is not binding (the paper's optimality property); when the
			// floor forces prime-factor fallbacks the order can invert,
			// so monotonicity is asserted only for the dense case.
			if density >= 0.2 {
				for i := 1; i < len(degrees); i++ {
					if degrees[i] > degrees[i-1] {
						t.Errorf("m=%d density=%g: degrees %v not non-increasing", m, density, degrees)
					}
				}
			}
			if prod != m {
				t.Fatalf("m=%d: degrees %v multiply to %d", m, degrees, prod)
			}
		}
	}
}

func TestDesignSingleMachine(t *testing.T) {
	degrees, err := Design(DesignInput{N: 100, Alpha: 1, Density0: 0.5, Machines: 1, ElemBytes: 4, MinPacket: 1})
	if err != nil || len(degrees) != 1 || degrees[0] != 1 {
		t.Fatalf("Design(m=1) = %v, %v", degrees, err)
	}
}

func TestDesignRejectsBadInput(t *testing.T) {
	if _, err := Design(DesignInput{N: 100, Alpha: 1, Density0: 0.5, Machines: 0, ElemBytes: 4, MinPacket: 1}); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := Design(DesignInput{N: 100, Alpha: 1, Density0: 0.5, Machines: 4, ElemBytes: 0, MinPacket: 1}); err == nil {
		t.Error("accepted ElemBytes=0")
	}
	if _, err := Design(DesignInput{N: 100, Alpha: 1, Density0: 2, Machines: 4, ElemBytes: 4, MinPacket: 1}); err == nil {
		t.Error("accepted density=2")
	}
}

func TestDesignWithLambda(t *testing.T) {
	lambda0, _ := SolveLambda(1<<20, 1, 0.21)
	d1, err := DesignWithLambda(DesignInput{N: 1 << 20, Alpha: 1, Machines: 16, ElemBytes: 4, MinPacket: 4 << 10}, lambda0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Design(DesignInput{N: 1 << 20, Alpha: 1, Density0: 0.21, Machines: 16, ElemBytes: 4, MinPacket: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("lambda and density paths disagree: %v vs %v", d1, d2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("lambda and density paths disagree: %v vs %v", d1, d2)
		}
	}
}

func TestLargestDivisorAtMost(t *testing.T) {
	cases := []struct{ n, cap, want int }{
		{64, 10, 8}, {64, 39, 32}, {64, 64, 64}, {64, 100, 64},
		{64, 1, 0}, {12, 5, 4}, {7, 6, 0}, {7, 7, 7}, {36, 9, 9},
	}
	for _, c := range cases {
		if got := largestDivisorAtMost(c.n, c.cap); got != c.want {
			t.Errorf("largestDivisorAtMost(%d,%d) = %d, want %d", c.n, c.cap, got, c.want)
		}
	}
}

func TestSmallestPrimeFactor(t *testing.T) {
	cases := []struct{ n, want int }{{2, 2}, {9, 3}, {35, 5}, {64, 2}, {97, 97}}
	for _, c := range cases {
		if got := SmallestPrimeFactor(c.n); got != c.want {
			t.Errorf("SmallestPrimeFactor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFactorizations(t *testing.T) {
	fs := Factorizations(8)
	// 8 = 8, 2*4, 4*2, 2*2*2 -> 4 ordered factorizations.
	if len(fs) != 4 {
		t.Fatalf("Factorizations(8) has %d entries: %v", len(fs), fs)
	}
	for _, f := range fs {
		prod := 1
		for _, d := range f {
			prod *= d
		}
		if prod != 8 {
			t.Errorf("factorization %v does not multiply to 8", f)
		}
	}
}

// TestDesignPropertyQuick drives the design workflow with randomized
// problem parameters: the output must always multiply to the machine
// count with every degree >= 2 (or be the trivial [1]).
func TestDesignPropertyQuick(t *testing.T) {
	f := func(mSeed, dSeed, pSeed uint8) bool {
		m := 2 + int(mSeed)%127
		density := 0.01 + float64(dSeed%90)/100
		minPacket := float64(int64(64) << (pSeed % 10))
		degrees, err := Design(DesignInput{
			N: 1 << 14, Alpha: 0.8, Density0: density,
			Machines: m, ElemBytes: 4, MinPacket: minPacket,
		})
		if err != nil {
			return false
		}
		prod := 1
		for _, d := range degrees {
			if d < 2 {
				return false
			}
			prod *= d
		}
		return prod == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
