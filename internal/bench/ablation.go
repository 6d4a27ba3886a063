package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"kylix/internal/comm"
	"kylix/internal/core"
	"kylix/internal/des"
	"kylix/internal/memnet"
	"kylix/internal/netsim"
	"kylix/internal/obs"
	"kylix/internal/powerlaw"
	"kylix/internal/topo"
)

// AblationDesignSearch validates the §IV design workflow against brute
// force: it evaluates *every* ordered factorization of m under the
// Proposition 4.1 traffic predictions and the cost model, and shows
// where the workflow's greedy pick lands. The paper's claim is that the
// workflow yields the optimal network; the table lists the best
// factorizations by predicted allreduce time with the workflow's choice
// marked.
func AblationDesignSearch(sc Scale) (*Table, error) {
	p := twitterProfile()
	model := modelFor(p, sc)
	lambda0, err := powerlaw.SolveLambda(sc.N, p.alpha, p.density)
	if err != nil {
		return nil, err
	}
	chosen, err := designForDensity(model, sc.N, p.density, sc.Machines)
	if err != nil {
		return nil, err
	}
	chosenKey := topo.MustNew(chosen).String()

	type cand struct {
		degrees []int
		sec     float64
	}
	var cands []cand
	for _, f := range powerlaw.Factorizations(sc.Machines) {
		if len(f) == 0 {
			f = []int{1}
		}
		sec, err := predictAllreduceTime(sc.N, p.alpha, lambda0, f, model)
		if err != nil {
			return nil, err
		}
		cands = append(cands, cand{degrees: f, sec: sec})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].sec < cands[b].sec })

	t := &Table{
		Title: "Ablation: §IV workflow vs exhaustive degree search (predicted reduce time)",
		Note: fmt.Sprintf("all %d ordered factorizations of m=%d evaluated under Prop 4.1 traffic\nand the cost model; '<- workflow' marks the greedy §IV choice (%s)",
			len(cands), sc.Machines, chosenKey),
		Header: []string{"rank", "degrees", "predictedSec", "vsBest"},
	}
	best := cands[0].sec
	shown := 0
	for i, c := range cands {
		key := topo.MustNew(c.degrees).String()
		mark := ""
		if key == chosenKey {
			mark = "  <- workflow"
		}
		if shown < 6 || mark != "" {
			t.Rows = append(t.Rows, []string{
				fi(int64(i + 1)), key + mark,
				f6(c.sec), fmt.Sprintf("%.2fx", c.sec/best),
			})
			shown++
		}
	}
	return t, nil
}

// predictAllreduceTime models a full reduce+gather round from the
// Proposition 4.1 per-layer traffic (no protocol run needed): each
// communication layer moves the predicted per-node volume in d messages
// both down and up.
func predictAllreduceTime(n int64, alpha, lambda0 float64, degrees []int, model netsim.Model) (float64, error) {
	layers, err := powerlaw.PredictTraffic(n, alpha, lambda0, degrees)
	if err != nil {
		return 0, err
	}
	m := 1
	for _, d := range degrees {
		m *= d
	}
	total := 0.0
	for _, l := range layers {
		perNodeElems := l.TotalElems / float64(m)
		// Wire traffic excludes the self piece (1/d of the volume).
		wireBytes := int64(perNodeElems * 4 * float64(l.Degree-1) / float64(l.Degree))
		msgs := int64(l.Degree - 1)
		if msgs == 0 {
			continue
		}
		// Down (scatter-reduce) and up (allgather) both cross the layer.
		total += 2 * model.NodePhaseTime(msgs, wireBytes, model.Cores)
	}
	return total, nil
}

// AblationFusedConfigReduce compares the combined configure+reduce of
// §III against separate configuration and reduction passes on a
// minibatch-style workload whose index sets change every round: the
// fused path halves the message count and merges the index traffic into
// the value packets.
func AblationFusedConfigReduce(sc Scale) (*Table, error) {
	p := twitterProfile()
	model := modelFor(p, sc)
	w, err := genWorkload(p, sc.N, sc.Machines, sc.Seed)
	if err != nil {
		return nil, err
	}
	degrees := scaleDegrees(p.degrees, sc.Machines)
	bf, err := topo.New(degrees)
	if err != nil {
		return nil, err
	}

	run := func(fused bool) (*obs.Traffic, error) {
		col := obs.NewTraffic(bf.M())
		net := memnet.New(bf.M(), memnet.WithObserver(col.Observer), memnet.WithRecvTimeout(60*time.Second))
		defer net.Close()
		err := memnet.Run(net, func(ep comm.Endpoint) error {
			m, err := core.NewMachine(ep, bf, core.Options{})
			if err != nil {
				return err
			}
			q := ep.Rank()
			if fused {
				_, _, err = m.ConfigureReduce(w.sets[q], w.sets[q], w.vals[q])
				return err
			}
			cfg, err := m.Configure(w.sets[q], w.sets[q])
			if err != nil {
				return err
			}
			_, err = cfg.Reduce(w.vals[q])
			return err
		})
		return col, err
	}

	t := &Table{
		Title:  "Ablation: fused configure+reduce vs separate passes (one minibatch round)",
		Note:   "when in/out sets change every allreduce (§III minibatch case), fusing\nconfig and reduce into combined messages saves a full message round",
		Header: []string{"mode", "msgs", "bytesMB", "modelSec"},
	}
	for _, mode := range []struct {
		name  string
		fused bool
	}{{"separate", false}, {"fused", true}} {
		col, err := run(mode.fused)
		if err != nil {
			return nil, err
		}
		layers := col.Layers()
		var msgs, bytes int64
		for _, lt := range layers {
			if lt.Kind == comm.KindConfig || lt.Kind == comm.KindReduce ||
				lt.Kind == comm.KindGather || lt.Kind == comm.KindConfigReduce {
				msgs += lt.Msgs
				bytes += lt.Bytes
			}
		}
		rep := netsim.Estimate(layers, col.Machines(), model, model.Cores)
		t.Rows = append(t.Rows, []string{
			mode.name, fi(msgs), fmtMB(bytes), f6(rep.TotalSec()),
		})
	}
	return t, nil
}

// AblationPacketRacing quantifies §V-B: replication races every receive
// across the replicas, so on networks with latency variance the
// *expected* phase latency falls even though total traffic doubles. The
// table sweeps latency spread (log-normal sigma) over one degree-8 layer
// of the discrete-event simulator — zero-byte pieces on a model that is
// pure latency, so a node's finish time is the slowest of its peers'
// (raced) deliveries — unreplicated and 2x-replicated.
func AblationPacketRacing() (*Table, error) {
	t := &Table{
		Title:  "Ablation: §V-B packet racing under latency variance (expected phase latency, ms)",
		Note:   "one degree-8 layer in the DES: a node waits for its 7 peers (its own piece skips\nthe wire); latencies are log-normal with median 1 ms; racing takes the faster\nof 2 replica copies per peer",
		Header: []string{"sigma", "unreplicated", "replicated(s=2)", "racingGain"},
	}
	const rounds = 2500 // x 8 nodes = 20000 waits per cell
	phaseMs := func(sigma float64, replication int) (float64, error) {
		cfg := des.Config{
			Topology:     topo.MustNew([]int{8}),
			LayerBytes:   []float64{0},
			Model:        netsim.Model{LatencySec: 1e-3, Cores: 1},
			Threads:      1,
			LatencySigma: sigma,
			Replication:  replication,
		}
		rng := rand.New(rand.NewSource(1234))
		total := 0.0
		for i := 0; i < rounds; i++ {
			res, err := des.Simulate(cfg, rng)
			if err != nil {
				return 0, err
			}
			total += res.MeanFinishSec
		}
		return total / rounds * 1e3, nil
	}
	for _, sigma := range []float64{0, 0.2, 0.5, 1.0, 1.5} {
		plain, err := phaseMs(sigma, 1)
		if err != nil {
			return nil, err
		}
		raced, err := phaseMs(sigma, 2)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f3(sigma), f3(plain), f3(raced), fmt.Sprintf("%.2fx", plain/raced),
		})
	}
	return t, nil
}

// AblationJitterDES uses the discrete-event simulator to replay the
// protocol's dependency structure under log-normal latency jitter: it
// shows (a) the binary butterfly paying its extra layers, (b) direct
// all-to-all's 64-way fan-in degrading fastest as jitter grows, and (c)
// packet racing recovering much of the jitter cost — the §V-B and §VI-B
// variability arguments with protocol structure intact.
func AblationJitterDES(sc Scale) (*Table, error) {
	p := twitterProfile()
	model := modelFor(p, sc)
	// Latency large enough to matter against the scaled transfer times.
	model.LatencySec = model.MsgOverheadSec * 2
	lambda0, err := powerlaw.SolveLambda(sc.N, p.alpha, p.density)
	if err != nil {
		return nil, err
	}
	layerBytesFor := func(degrees []int) []float64 {
		stats := powerlaw.Predict(sc.N, p.alpha, lambda0, degrees)
		out := make([]float64, len(degrees))
		for i := range degrees {
			out[i] = stats[i].ElemsPerNode * 4
		}
		return out
	}
	t := &Table{
		Title:  "Ablation: protocol-structure simulation under latency jitter (DES, relative makespan)",
		Note:   "discrete-event replay of the round's dependency graph; entries are\nmakespans normalized to the optimal topology at sigma=0; 'raced'\nreplicates messages 2x and takes the first copy (§V-B)",
		Header: []string{"sigma", "optimal", "binary", "direct", "optimal(raced)"},
	}
	type variant struct {
		degrees []int
		repl    int
	}
	optimal := scaleDegrees(p.degrees, sc.Machines)
	variants := []variant{
		{optimal, 1},
	}
	if bin, err := topo.Binary(sc.Machines); err == nil {
		variants = append(variants, variant{bin, 1})
	} else {
		variants = append(variants, variant{optimal, 1})
	}
	variants = append(variants, variant{topo.Direct(sc.Machines), 1}, variant{optimal, 2})

	var base float64
	for _, sigma := range []float64{0, 0.5, 1.0} {
		row := []string{f3(sigma)}
		for _, v := range variants {
			cfg := des.Config{
				Topology:     topo.MustNew(v.degrees),
				LayerBytes:   layerBytesFor(v.degrees),
				Model:        model,
				Threads:      model.Cores,
				LatencySigma: sigma,
				Replication:  v.repl,
				Gather:       true,
			}
			mk, err := des.ExpectedMakespan(cfg, sc.Seed, 60)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = mk
			}
			row = append(row, fmt.Sprintf("%.2fx", mk/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
