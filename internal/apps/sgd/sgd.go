// Package sgd trains an L2-regularized logistic-regression model with
// distributed minibatch stochastic gradient descent — the §I-A1
// workload: each machine streams its own minibatches, and because a
// subgradient update touches exactly the features present in the batch,
// every round is a *sparse* model exchange.
//
// The model is sharded the way the paper prescribes ("every model
// feature should have a home machine which always sends and receives
// that feature"): machine h owns the authoritative value of the features
// whose key hashes into its bottom range. Each round runs two fused
// configure+reduce operations:
//
//  1. fetch: in = my batch's features, out = my homed features carrying
//     their current values (sum over exactly one contributor = the
//     value);
//  2. update: out = my batch's features carrying gradient contributions,
//     in = my homed features; the gathered sums update the home copies.
//
// In/out sets change every round, which is exactly the case the combined
// configure+reduce message flow exists for.
package sgd

import (
	"fmt"
	"math"
	"math/rand"

	"kylix/internal/core"
	"kylix/internal/powerlaw"
	"kylix/internal/sparse"
)

// Example is one training sample with sparse features.
type Example struct {
	Feats []int32
	Vals  []float32
	Label float32 // 0 or 1
}

// Dataset is one machine's local shard of examples.
type Dataset struct {
	N        int64 // global feature count
	Examples []Example
}

// GenDataset synthesizes a power-law sparse classification problem: a
// ground-truth weight vector over n features, examples whose active
// features follow a Zipf(alpha) head-heavy distribution, labels from the
// true logit plus noise. Each of m machines should call this with its
// own rng stream but the same truthSeed so labels are consistent.
func GenDataset(rng *rand.Rand, n int64, examples, featsPerExample int, alpha float64, truthSeed int64) *Dataset {
	ds := &Dataset{N: n}
	for e := 0; e < examples; e++ {
		seen := make(map[int32]bool, featsPerExample)
		ex := Example{}
		for len(ex.Feats) < featsPerExample {
			f := int32(powerlaw.ZipfRank(rng, n, alpha) - 1)
			if seen[f] {
				continue
			}
			seen[f] = true
			ex.Feats = append(ex.Feats, f)
			ex.Vals = append(ex.Vals, rng.Float32()*2-1)
		}
		logit := float64(0)
		for i, f := range ex.Feats {
			logit += truthWeight(f, truthSeed) * float64(ex.Vals[i])
		}
		p := 1 / (1 + math.Exp(-logit))
		if rng.Float64() < p {
			ex.Label = 1
		}
		ds.Examples = append(ds.Examples, ex)
	}
	return ds
}

// truthWeight derives the ground-truth weight of a feature from a seed.
func truthWeight(f int32, seed int64) float64 {
	h := uint64(uint32(f))*0xD6E8FEB86659FD93 ^ uint64(seed)
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return (float64(h%2000)/1000 - 1) * 2 // in [-2, 2)
}

// Params tune the trainer.
type Params struct {
	Rounds    int
	BatchSize int
	LearnRate float32
	L2        float32
}

// Result is one machine's training outcome.
type Result struct {
	// Losses is the mean per-round training loss over this machine's
	// batches (before the round's update).
	Losses []float64
	// Model maps this machine's homed features to their final values.
	Model map[int32]float32
}

// RunNode trains collectively. home lists the features this machine is
// the home for (disjoint across machines, jointly covering all features
// that ever occur); homeVals are their initial values (nil = zeros).
func RunNode(m *core.Machine, ds *Dataset, home sparse.Set, p Params, rng *rand.Rand) (*Result, error) {
	if p.Rounds <= 0 || p.BatchSize <= 0 {
		return nil, fmt.Errorf("sgd: bad params %+v", p)
	}
	homeVals := make([]float32, len(home))
	res := &Result{}
	for round := 0; round < p.Rounds; round++ {
		batch := sampleBatch(ds, p.BatchSize, rng)
		batchSet, batchPos := batchFeatures(batch)

		// Phase 1 — fetch current weights of the batch's features: homes
		// push their values, everyone pulls what their batch needs.
		_, fetched, err := m.ConfigureReduce(batchSet, home, homeVals)
		if err != nil {
			return nil, fmt.Errorf("sgd: round %d fetch: %w", round, err)
		}

		// Local subgradient over the batch at the fetched weights.
		grad := make([]float32, len(batchSet))
		loss := 0.0
		for bi, ex := range batch {
			logit := float64(0)
			for i := range ex.Feats {
				logit += float64(fetched[batchPos[bi][i]] * ex.Vals[i])
			}
			pred := 1 / (1 + math.Exp(-logit))
			loss += logLoss(pred, ex.Label)
			g := float32(pred) - ex.Label
			for i := range ex.Feats {
				grad[batchPos[bi][i]] += g * ex.Vals[i] / float32(len(batch))
			}
		}
		res.Losses = append(res.Losses, loss/float64(len(batch)))

		// Phase 2 — push gradients; homes gather the global sums and
		// apply the update to their authoritative copies.
		_, gathered, err := m.ConfigureReduce(home, batchSet, grad)
		if err != nil {
			return nil, fmt.Errorf("sgd: round %d update: %w", round, err)
		}
		scale := p.LearnRate / float32(m.Topology().M())
		for i := range homeVals {
			homeVals[i] -= scale*gathered[i] + p.LearnRate*p.L2*homeVals[i]
		}
	}
	res.Model = make(map[int32]float32, len(home))
	for i, k := range home {
		res.Model[k.Index()] = homeVals[i]
	}
	return res, nil
}

// sampleBatch draws a minibatch with replacement.
func sampleBatch(ds *Dataset, size int, rng *rand.Rand) []Example {
	batch := make([]Example, size)
	for i := range batch {
		batch[i] = ds.Examples[rng.Intn(len(ds.Examples))]
	}
	return batch
}

// batchFeatures collects the distinct features of a batch and, per
// example, the position of each of its features in the batch set.
func batchFeatures(batch []Example) (sparse.Set, [][]int32) {
	var all []int32
	for _, ex := range batch {
		all = append(all, ex.Feats...)
	}
	set, perm, err := sparse.NewSet(all)
	if err != nil {
		panic("sgd: invalid feature index: " + err.Error())
	}
	perm = sparse.PermOrIdentity(perm, len(all))
	pos := make([][]int32, len(batch))
	off := 0
	for bi, ex := range batch {
		pos[bi] = perm[off : off+len(ex.Feats)]
		off += len(ex.Feats)
	}
	return set, pos
}

func logLoss(pred float64, label float32) float64 {
	const eps = 1e-7
	if pred < eps {
		pred = eps
	}
	if pred > 1-eps {
		pred = 1 - eps
	}
	if label > 0.5 {
		return -math.Log(pred)
	}
	return -math.Log(1 - pred)
}

// HomeSets splits the feature universe of a dataset across m machines by
// key hash range, matching the bottom-layer ownership of a direct
// (1-layer) network so every feature has exactly one home. It returns
// machine `rank`'s share of the features observed in any of the given
// per-machine datasets' universes [0, n).
func HomeSets(n int64, m, rank int) sparse.Set {
	full := sparse.FullRange()
	var mine []int32
	for f := int64(0); f < n; f++ {
		k := sparse.MakeKey(int32(f))
		if full.Sub(m, rank).Contains(k) {
			mine = append(mine, int32(f))
		}
	}
	return sparse.MustNewSet(mine)
}

// SequentialTrain is the single-machine reference: plain minibatch SGD
// over the union of all machines' datasets, used to sanity-check that
// distributed training reaches a comparable loss.
func SequentialTrain(dss []*Dataset, p Params, rng *rand.Rand) []float64 {
	var all []Example
	for _, ds := range dss {
		all = append(all, ds.Examples...)
	}
	model := map[int32]float32{}
	var losses []float64
	for round := 0; round < p.Rounds; round++ {
		loss := 0.0
		grad := map[int32]float32{}
		for b := 0; b < p.BatchSize; b++ {
			ex := all[rng.Intn(len(all))]
			logit := float64(0)
			for i, f := range ex.Feats {
				logit += float64(model[f] * ex.Vals[i])
			}
			pred := 1 / (1 + math.Exp(-logit))
			loss += logLoss(pred, ex.Label)
			g := float32(pred) - ex.Label
			for i, f := range ex.Feats {
				grad[f] += g * ex.Vals[i] / float32(p.BatchSize)
			}
		}
		losses = append(losses, loss/float64(p.BatchSize))
		for f, g := range grad {
			model[f] -= p.LearnRate*g + p.LearnRate*p.L2*model[f]
		}
	}
	return losses
}
