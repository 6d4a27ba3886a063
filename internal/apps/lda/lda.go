// Package lda trains a latent Dirichlet allocation topic model with a
// distributed collapsed Gibbs sampler — the §I-A1 MCMC workload ("Gibbs
// samplers involve updates to a model on every sample. To improve
// performance, the sample updates are batched in very similar fashion to
// subgradient updates"). Documents are sharded across machines; each
// sweep a machine resamples its tokens' topic assignments against the
// global word-topic count matrix and exchanges the *sparse delta* of
// counts — only the words present in its shard — through a fused
// configure+reduce with Width = K values (one per topic) per word.
//
// This is the approximate distributed Gibbs scheme of Newman et al.
// (AD-LDA) built on Kylix's primitive: within a sweep machines sample
// against a slightly stale global matrix; the allreduce at the end of
// the sweep reconciles all deltas exactly.
package lda

import (
	"fmt"
	"math"
	"math/rand"

	"kylix/internal/core"
	"kylix/internal/sparse"
)

// Corpus is one machine's document shard: Docs[d] lists the word ids of
// document d (tokens, duplicates allowed).
type Corpus struct {
	Vocab int32
	Docs  [][]int32
}

// GenCorpus synthesizes a corpus with topic structure: `topics` latent
// topics, each concentrated on its own slice of the vocabulary, and
// documents drawn from 1-2 topics. Machines seed their own rng streams.
func GenCorpus(rng *rand.Rand, vocab int32, topics, docs, tokensPerDoc int) *Corpus {
	c := &Corpus{Vocab: vocab}
	wordsPerTopic := vocab / int32(topics)
	for d := 0; d < docs; d++ {
		primary := rng.Intn(topics)
		secondary := rng.Intn(topics)
		doc := make([]int32, tokensPerDoc)
		for t := range doc {
			topic := primary
			if rng.Intn(4) == 0 {
				topic = secondary
			}
			doc[t] = int32(topic)*wordsPerTopic + rng.Int31n(wordsPerTopic)
		}
		c.Docs = append(c.Docs, doc)
	}
	return c
}

// Params tune the sampler.
type Params struct {
	Topics int
	Alpha  float64 // document-topic smoothing
	Beta   float64 // topic-word smoothing
	Sweeps int
}

// Result is one machine's outcome.
type Result struct {
	// Assignments mirrors the corpus: the final topic of every token.
	Assignments [][]int
	// LogLikelihood traces the per-sweep token log-likelihood of the
	// local shard (should rise as topics sharpen).
	LogLikelihood []float64
	// TopicTotals is the final global per-topic token count (identical
	// across machines).
	TopicTotals []float64
}

// RunNode trains collectively. The machine must be constructed with
// Width = Params.Topics; the totals machine carries the global
// per-topic totals in a separate core.Options.Stream (width K as well).
func RunNode(m *core.Machine, totalsNet *core.Machine, corpus *Corpus, p Params, rng *rand.Rand) (*Result, error) {
	if p.Topics < 2 || p.Sweeps < 1 {
		return nil, fmt.Errorf("lda: need >= 2 topics and >= 1 sweep, got %+v", p)
	}
	k := p.Topics

	// Local state: token assignments, document-topic counts, local
	// word-topic counts for the words in this shard.
	words := vocabOf(corpus)
	wordPos := map[int32]int{}
	for i, kk := range words {
		wordPos[kk.Index()] = i
	}
	assign := make([][]int, len(corpus.Docs))
	docTopic := make([][]int32, len(corpus.Docs))
	localWT := make([]float32, len(words)*k) // this machine's contributions
	for d, doc := range corpus.Docs {
		assign[d] = make([]int, len(doc))
		docTopic[d] = make([]int32, k)
		for t, w := range doc {
			z := rng.Intn(k)
			assign[d][t] = z
			docTopic[d][z]++
			localWT[wordPos[w]*k+z]++
		}
	}

	totalsSet := sparse.MustNewSet([]int32{0})
	totalsCfg, err := totalsNet.Configure(totalsSet, totalsSet)
	if err != nil {
		return nil, fmt.Errorf("lda: totals configure: %w", err)
	}

	res := &Result{Assignments: assign}
	globalWT := make([]float32, len(localWT))
	globalTotals := make([]float64, k)
	for sweep := 0; sweep < p.Sweeps; sweep++ {
		// Synchronize: global word-topic counts for my words, and global
		// per-topic totals. The word sets are fixed per machine, but the
		// fused call keeps this a single network pass per sweep.
		_, gathered, err := m.ConfigureReduce(words, words, localWT)
		if err != nil {
			return nil, fmt.Errorf("lda: sweep %d sync: %w", sweep, err)
		}
		copy(globalWT, gathered)
		myTotals := make([]float32, k)
		for i := 0; i < len(localWT); i += k {
			for z := 0; z < k; z++ {
				myTotals[z] += localWT[i+z]
			}
		}
		totals, err := totalsCfg.Reduce(myTotals)
		if err != nil {
			return nil, fmt.Errorf("lda: sweep %d totals: %w", sweep, err)
		}
		for z := 0; z < k; z++ {
			globalTotals[z] = float64(totals[z])
		}

		// Gibbs sweep against the (stale-within-sweep) global counts.
		ll := 0.0
		vBeta := float64(corpus.Vocab) * p.Beta
		probs := make([]float64, k)
		for d, doc := range corpus.Docs {
			for t, w := range doc {
				wp := wordPos[w]
				old := assign[d][t]
				// Remove the token from its own counts (local and the
				// cached global view).
				docTopic[d][old]--
				localWT[wp*k+old]--
				globalWT[wp*k+old]--
				globalTotals[old]--

				sum := 0.0
				for z := 0; z < k; z++ {
					pz := (float64(docTopic[d][z]) + p.Alpha) *
						(float64(globalWT[wp*k+z]) + p.Beta) /
						(globalTotals[z] + vBeta)
					probs[z] = pz
					sum += pz
				}
				u := rng.Float64() * sum
				z := 0
				for z < k-1 && u > probs[z] {
					u -= probs[z]
					z++
				}
				assign[d][t] = z
				docTopic[d][z]++
				localWT[wp*k+z]++
				globalWT[wp*k+z]++
				globalTotals[z]++
				ll += logOf(probs[z] / sum)
			}
		}
		res.LogLikelihood = append(res.LogLikelihood, ll)
	}
	// Final exact reconciliation for reporting. Global per-topic totals
	// must sum every machine's local counts (a machine's own vocabulary
	// misses words it never saw), so they come from the totals network,
	// whose inputs are disjoint per machine.
	if _, _, err := m.ConfigureReduce(words, words, localWT); err != nil {
		return nil, fmt.Errorf("lda: final sync: %w", err)
	}
	myTotals := make([]float32, k)
	for i := 0; i < len(localWT); i += k {
		for z := 0; z < k; z++ {
			myTotals[z] += localWT[i+z]
		}
	}
	finalTotals, err := totalsCfg.Reduce(myTotals)
	if err != nil {
		return nil, fmt.Errorf("lda: final totals: %w", err)
	}
	res.TopicTotals = make([]float64, k)
	for z := 0; z < k; z++ {
		res.TopicTotals[z] = float64(finalTotals[z])
	}
	return res, nil
}

// vocabOf returns the sorted key set of distinct words in the shard.
func vocabOf(c *Corpus) sparse.Set {
	var all []int32
	for _, doc := range c.Docs {
		all = append(all, doc...)
	}
	set, _, err := sparse.NewSet(all)
	if err != nil {
		panic("lda: invalid word id: " + err.Error())
	}
	return set
}

// logOf is a guarded log for likelihood accumulation.
func logOf(p float64) float64 {
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

// TopicCoherence scores how concentrated each topic's mass is on a
// contiguous vocabulary block (matching GenCorpus's construction): the
// fraction of each topic's weight falling in its best block. Values near
// 1 mean the sampler recovered the planted structure.
func TopicCoherence(wordTopic []float32, words sparse.Set, k int, vocab int32, topics int) []float64 {
	wordsPerTopic := vocab / int32(topics)
	blockMass := make([][]float64, k)
	totals := make([]float64, k)
	for z := 0; z < k; z++ {
		blockMass[z] = make([]float64, topics)
	}
	for i, key := range words {
		block := int(key.Index() / wordsPerTopic)
		if block >= topics {
			block = topics - 1
		}
		for z := 0; z < k; z++ {
			v := float64(wordTopic[i*k+z])
			blockMass[z][block] += v
			totals[z] += v
		}
	}
	out := make([]float64, k)
	for z := 0; z < k; z++ {
		best := 0.0
		for _, v := range blockMass[z] {
			if v > best {
				best = v
			}
		}
		if totals[z] > 0 {
			out[z] = best / totals[z]
		}
	}
	return out
}
