package powerlaw

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"kylix/internal/sparse"
)

func TestGeneratorDensityCalibration(t *testing.T) {
	n := int64(1 << 16)
	for _, target := range []float64{0.035, 0.21, 0.5} {
		gen, err := NewGeneratorForDensity(n, 1.0, target)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		total := 0
		const trials = 20
		for i := 0; i < trials; i++ {
			set := gen.NodeSet(rng)
			if !set.IsSorted() {
				t.Fatal("generated set not sorted")
			}
			total += len(set)
		}
		got := float64(total) / float64(trials) / float64(n)
		if math.Abs(got-target) > 0.04*target+0.01 {
			t.Errorf("target density %g: measured %g", target, got)
		}
	}
}

func TestGeneratorHeadHeavier(t *testing.T) {
	// Power law: the head (low indices) must be present far more often
	// than the tail.
	n := int64(1 << 16)
	gen, err := NewGeneratorForDensity(n, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	headHits, tailHits := 0, 0
	for i := 0; i < 30; i++ {
		set := gen.NodeSet(rng)
		for _, idx := range set.Indices() {
			if int64(idx) < n/100 {
				headHits++
			} else if int64(idx) >= n-n/100 {
				tailHits++
			}
		}
	}
	if headHits <= 4*tailHits {
		t.Errorf("head hits %d not dominating tail hits %d", headHits, tailHits)
	}
}

func TestGeneratorIndicesInRange(t *testing.T) {
	gen := &Generator{N: 1000, Alpha: 0.8, Lambda0: 5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		for _, idx := range gen.NodeSet(rng).Indices() {
			if idx < 0 || int64(idx) >= gen.N {
				t.Fatalf("index %d out of [0,%d)", idx, gen.N)
			}
		}
	}
}

func TestGeneratorSkipSamplingMatchesExact(t *testing.T) {
	// Compare the skip-sampled tail against an exact per-rank Bernoulli
	// reference distributionally: expected nonzero count must agree.
	n := int64(1 << 14)
	alpha, lambda := 1.0, 2.0
	gen := &Generator{N: n, Alpha: alpha, Lambda0: lambda}
	want := Density(n, alpha, lambda) * float64(n)
	rng := rand.New(rand.NewSource(4))
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		total += len(gen.NodeSet(rng))
	}
	got := float64(total) / trials
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("expected ~%g nonzeros, measured %g", want, got)
	}
}

func TestNodeVec(t *testing.T) {
	gen := &Generator{N: 4096, Alpha: 1, Lambda0: 3}
	rng := rand.New(rand.NewSource(5))
	v := gen.NodeVec(rng, 2)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(v.Keys) == 0 {
		t.Fatal("empty generated vec")
	}
}

func TestZipfRankBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, alpha := range []float64{0.5, 1.0, 1.5, 2.0} {
		for i := 0; i < 2000; i++ {
			r := ZipfRank(rng, 1000, alpha)
			if r < 1 || r > 1000 {
				t.Fatalf("alpha %g: rank %d out of [1,1000]", alpha, r)
			}
		}
	}
}

func TestZipfRankSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := int64(10000)
	for _, alpha := range []float64{0.7, 1.0, 1.4} {
		top, bottom := 0, 0
		for i := 0; i < 20000; i++ {
			r := ZipfRank(rng, n, alpha)
			if r <= n/100 {
				top++
			}
			if r > n-n/100 {
				bottom++
			}
		}
		if top <= 3*bottom {
			t.Errorf("alpha %g: top-1%% hits %d vs bottom-1%% hits %d; not power-law skewed", alpha, top, bottom)
		}
	}
}

func TestZipfRankAlphaOrdering(t *testing.T) {
	// Larger alpha concentrates more mass at low ranks.
	rng := rand.New(rand.NewSource(8))
	mean := func(alpha float64) float64 {
		s := 0.0
		for i := 0; i < 20000; i++ {
			s += float64(ZipfRank(rng, 100000, alpha))
		}
		return s / 20000
	}
	m05, m20 := mean(0.5), mean(2.0)
	if m20 >= m05 {
		t.Errorf("mean rank should fall with alpha: alpha=0.5 -> %g, alpha=2.0 -> %g", m05, m20)
	}
}

// The generated per-node sets, unioned across all m nodes, should have
// density predicted by Prop 4.1 at the bottom layer (K = m).
func TestGeneratorMatchesProp41(t *testing.T) {
	n := int64(1 << 14)
	m := 16
	gen, err := NewGeneratorForDensity(n, 1.0, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sets := make([]sparse.Set, m)
	for i := range sets {
		sets[i] = gen.NodeSet(rng)
	}
	union := sparse.TreeUnion(sets)
	want := Density(n, 1.0, float64(m)*gen.Lambda0)
	got := float64(len(union)) / float64(n)
	if math.Abs(got-want) > 0.05*want+0.01 {
		t.Errorf("union density %g, Prop 4.1 predicts %g", got, want)
	}
}

// TestNodeSetDrawsPinned pins the generator's draws bit for bit: the
// benchmark's result digests and wire bytes depend on these exact sets,
// so a refactor of the sampler must not move a single index. The same
// holds for Occurrences, whose tail shares NodeSet's sampler.
func TestNodeSetDrawsPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [4]byte
	put := func(idx int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(idx))
		h.Write(buf[:])
	}
	for _, c := range []struct {
		n       int64
		alpha   float64
		density float64
	}{{1 << 16, 1.0, 0.21}, {1 << 18, 0.8, 0.035}, {5000, 1.4, 0.5}} {
		gen, err := NewGeneratorForDensity(c.n, c.alpha, c.density)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, idx := range gen.NodeSet(rng).Indices() {
				put(idx)
			}
			for _, idx := range gen.Occurrences(rng) {
				put(idx)
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x873bd84a96a67504); got != want {
		t.Fatalf("draw digest %#x, want %#x", got, want)
	}
}
