package lda

import (
	"math"
	"math/rand"
	"testing"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/memnet"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// totalsStream is the per-topic totals network's tag namespace beside
// the count network's default one.
const totalsStream comm.StreamID = 1

func TestGenCorpusShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := GenCorpus(rng, 100, 4, 10, 20)
	if len(c.Docs) != 10 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	for _, doc := range c.Docs {
		if len(doc) != 20 {
			t.Fatal("doc length wrong")
		}
		for _, w := range doc {
			if w < 0 || w >= c.Vocab {
				t.Fatalf("word %d out of vocab", w)
			}
		}
	}
}

func runLDA(t *testing.T, machines int, p Params, seed int64) ([]*Result, []*Corpus) {
	t.Helper()
	corpora := make([]*Corpus, machines)
	for r := range corpora {
		corpora[r] = GenCorpus(rand.New(rand.NewSource(seed+int64(r))), 200, p.Topics, 30, 40)
	}
	bf := topo.MustNew([]int{machines})
	net := memnet.New(machines)
	defer net.Close()
	results := make([]*Result, machines)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := core.NewMachine(ep, bf, core.Options{Width: p.Topics})
		if err != nil {
			return err
		}
		totals, err := core.NewMachine(ep, bf, core.Options{Width: p.Topics, Stream: totalsStream})
		if err != nil {
			return err
		}
		res, err := RunNode(m, totals, corpora[ep.Rank()], p, rand.New(rand.NewSource(int64(ep.Rank())+99)))
		if err != nil {
			return err
		}
		results[ep.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, corpora
}

func TestLDALikelihoodImproves(t *testing.T) {
	p := Params{Topics: 4, Alpha: 0.5, Beta: 0.1, Sweeps: 12}
	results, _ := runLDA(t, 4, p, 7)
	for r, res := range results {
		first, last := res.LogLikelihood[0], res.LogLikelihood[len(res.LogLikelihood)-1]
		if last <= first {
			t.Fatalf("machine %d log-likelihood did not improve: %f -> %f", r, first, last)
		}
	}
}

func TestLDATopicTotalsConsistent(t *testing.T) {
	p := Params{Topics: 4, Alpha: 0.5, Beta: 0.1, Sweeps: 4}
	results, corpora := runLDA(t, 3, p, 13)
	// Every machine reports the same global totals.
	for r := 1; r < len(results); r++ {
		for z := 0; z < p.Topics; z++ {
			if math.Abs(results[r].TopicTotals[z]-results[0].TopicTotals[z]) > 0.5 {
				t.Fatalf("machines disagree on topic totals: %v vs %v",
					results[r].TopicTotals, results[0].TopicTotals)
			}
		}
	}
	// Totals sum to the global token count.
	tokens := 0
	for _, c := range corpora {
		for _, doc := range c.Docs {
			tokens += len(doc)
		}
	}
	sum := 0.0
	for _, v := range results[0].TopicTotals {
		sum += v
	}
	if math.Abs(sum-float64(tokens)) > 1 {
		t.Fatalf("topic totals sum %f, want %d tokens", sum, tokens)
	}
}

func TestLDARecoversPlantedTopics(t *testing.T) {
	// With block-structured vocabulary, a converged sampler's topics
	// concentrate on single blocks. Measure on one machine's local
	// counts after training.
	p := Params{Topics: 4, Alpha: 0.1, Beta: 0.05, Sweeps: 30}
	machines := 2
	corpora := make([]*Corpus, machines)
	for r := range corpora {
		corpora[r] = GenCorpus(rand.New(rand.NewSource(21+int64(r))), 200, p.Topics, 60, 50)
	}
	bf := topo.MustNew([]int{machines})
	net := memnet.New(machines)
	defer net.Close()
	coherences := make([][]float64, machines)
	err := memnet.Run(net, func(ep comm.Endpoint) error {
		m, err := core.NewMachine(ep, bf, core.Options{Width: p.Topics})
		if err != nil {
			return err
		}
		totals, err := core.NewMachine(ep, bf, core.Options{Width: p.Topics, Stream: totalsStream})
		if err != nil {
			return err
		}
		res, err := RunNode(m, totals, corpora[ep.Rank()], p, rand.New(rand.NewSource(int64(ep.Rank())+5)))
		if err != nil {
			return err
		}
		// Rebuild local word-topic counts from final assignments.
		words := vocabOf(corpora[ep.Rank()])
		pos := map[int32]int{}
		for i, k := range words {
			pos[k.Index()] = i
		}
		wt := make([]float32, len(words)*p.Topics)
		for d, doc := range corpora[ep.Rank()].Docs {
			for t2, w := range doc {
				wt[pos[w]*p.Topics+res.Assignments[d][t2]]++
			}
		}
		coherences[ep.Rank()] = TopicCoherence(wt, words, p.Topics, 200, p.Topics)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Average coherence well above the uniform baseline (1/topics=0.25).
	for r, coh := range coherences {
		avg := 0.0
		for _, c := range coh {
			avg += c
		}
		avg /= float64(len(coh))
		if avg < 0.5 {
			t.Fatalf("machine %d topic coherence %.2f too low (%v)", r, avg, coh)
		}
	}
}

func TestRunNodeValidates(t *testing.T) {
	net := memnet.New(1)
	defer net.Close()
	bf := topo.MustNew([]int{1})
	m, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Width: 2})
	totals, _ := core.NewMachine(net.Endpoint(0), bf, core.Options{Width: 2, Stream: totalsStream})
	c := GenCorpus(rand.New(rand.NewSource(1)), 50, 2, 4, 8)
	if _, err := RunNode(m, totals, c, Params{Topics: 1, Sweeps: 3}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted 1 topic")
	}
	if _, err := RunNode(m, totals, c, Params{Topics: 2, Sweeps: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted 0 sweeps")
	}
}

func TestVocabOf(t *testing.T) {
	c := &Corpus{Vocab: 10, Docs: [][]int32{{1, 2, 2}, {2, 5}}}
	words := vocabOf(c)
	if len(words) != 3 {
		t.Fatalf("vocab size %d, want 3", len(words))
	}
	_ = sparse.Set(words)
}
