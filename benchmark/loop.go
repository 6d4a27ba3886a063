package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kylix"
)

// gate paces one closed loop. The ranks of a collective run freely
// inside a single Cluster.Run and meet only through the allreduce
// itself, so "stop now" has to name a pass index no rank has begun:
// every rank asks enter(i) before pass i, and the controller moves the
// phase boundaries to the first index nobody has started.
type gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ranks int
	// started is one past the highest pass any rank has begun.
	started int
	// measureFrom and stopAt are pass indexes; MaxInt until decided.
	measureFrom, stopAt int
	// syncAt[i] runs once, with every rank parked before pass i: the
	// only way to put ResetTraffic between two passes of a free-running
	// collective.
	syncAt  map[int]func()
	arrived int
	failed  bool
}

func newGate(ranks int) *gate {
	g := &gate{ranks: ranks, measureFrom: math.MaxInt, stopAt: math.MaxInt, syncAt: map[int]func(){}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter reports whether the calling rank should run pass i, and whether
// that pass lies in the measured window.
func (g *gate) enter(i int) (run, measured bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.syncAt[i]; ok && !g.failed {
		g.arrived++
		if g.arrived == g.ranks {
			f()
			delete(g.syncAt, i)
			g.arrived = 0
			g.cond.Broadcast()
		} else {
			for g.syncAt[i] != nil && !g.failed {
				g.cond.Wait()
			}
		}
	}
	if g.failed || i >= g.stopAt {
		return false, false
	}
	g.started = max(g.started, i+1)
	return true, i >= g.measureFrom
}

// guard wraps a rank's function so that its error releases every other
// rank from the gate.
func (g *gate) guard(fn func(*kylix.Node) error) func(*kylix.Node) error {
	return func(node *kylix.Node) error {
		err := fn(node)
		if err != nil {
			g.mu.Lock()
			g.failed = true
			g.mu.Unlock()
			g.cond.Broadcast()
		}
		return err
	}
}

func (g *gate) begun() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started
}

func (g *gate) startMeasuring() {
	g.mu.Lock()
	g.measureFrom = g.started
	g.mu.Unlock()
}

func (g *gate) stop() {
	g.mu.Lock()
	g.stopAt = min(g.stopAt, g.started)
	g.mu.Unlock()
}

// recorder holds what the driver times around root API calls.
type recorder struct {
	epoch time.Time
	// dur[r][i] is loop rank r's call duration for pass i, ns, warm-up
	// passes included.
	dur [][]int64
	// begin[i] is when loop rank 0 started pass i, ns since epoch.
	begin []int64
	// steps are a workload's sub-calls timed on loop rank 0, ns per pass.
	steps map[string][]int64
	// cold is the slowest rank's first configure call, ns.
	cold atomic.Int64
	// from is the first measured pass, wall the measured window.
	from       int
	wall       time.Duration
	mem0, mem1 runtime.MemStats
}

func newRecorder(ranks int) *recorder {
	r := &recorder{epoch: time.Now(), dur: make([][]int64, ranks), steps: map[string][]int64{}}
	for i := range r.dur {
		r.dur[i] = make([]int64, 0, 4096)
	}
	return r
}

func (r *recorder) pass(rank int, start time.Time, d time.Duration) {
	r.dur[rank] = append(r.dur[rank], int64(d))
	if rank == 0 {
		r.begin = append(r.begin, int64(start.Sub(r.epoch)))
	}
}

// step records a sub-call of the current pass; loop rank 0 only.
func (r *recorder) step(name string, d time.Duration) {
	r.steps[name] = append(r.steps[name], int64(d))
}

func (r *recorder) coldConfigure(d time.Duration) {
	for {
		cur := r.cold.Load()
		if int64(d) <= cur || r.cold.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// runPasses drives w's loop for exactly n passes; hooks[i] runs between
// passes i-1 and i with every rank parked.
func runPasses(w *workload, c *kylix.Cluster, n int, hooks map[int]func()) (*recorder, error) {
	g := newGate(w.loopRanks)
	g.stopAt = n
	for i, f := range hooks {
		g.syncAt[i] = f
	}
	rec := newRecorder(w.loopRanks)
	return rec, w.loop(c, g, rec)
}

// runWindow drives w's loop through a warm-up and a measured window of
// the given lengths. The warm-up also lasts until w.warmPasses passes
// have begun.
func runWindow(w *workload, c *kylix.Cluster, warm, window time.Duration) (*recorder, error) {
	g := newGate(w.loopRanks)
	rec := newRecorder(w.loopRanks)
	errc := make(chan error, 1)
	go func() { errc <- w.loop(c, g, rec) }()

	select {
	case err := <-errc:
		return rec, err
	case <-time.After(warm):
	}
	for g.begun() < w.warmPasses {
		select {
		case err := <-errc:
			return rec, err
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.ReadMemStats(&rec.mem0)
	t0 := time.Now()
	g.startMeasuring()
	select {
	case err := <-errc:
		return rec, err
	case <-time.After(window):
	}
	g.stop()
	rec.wall = time.Since(t0)
	runtime.ReadMemStats(&rec.mem1)
	err := <-errc
	rec.from = g.measureFrom
	return rec, err
}

// passStats is one measured window reduced to numbers.
type passStats struct {
	passes int
	// slow[j] is measured pass j's slowest-rank call, ms; mean[j] the
	// mean over ranks.
	slow, mean []float64
	// blockP50 and blockIQ are the per-block median and interquartile
	// mean of slow.
	blockP50, blockIQ []float64
	skew              float64
}

const blocks = 5

func summarize(rec *recorder) passStats {
	n := len(rec.begin)
	for _, d := range rec.dur {
		n = min(n, len(d))
	}
	var st passStats
	st.passes = n - rec.from
	if st.passes <= 0 {
		st.passes = 0
		return st
	}
	var skews []float64
	perBlock := make([][]float64, blocks)
	t0 := rec.begin[rec.from]
	blockLen := (rec.begin[n-1]-t0)/blocks + 1
	for i := rec.from; i < n; i++ {
		lo, hi, sum := int64(math.MaxInt64), int64(0), int64(0)
		for _, d := range rec.dur {
			lo, hi, sum = min(lo, d[i]), max(hi, d[i]), sum+d[i]
		}
		ms := float64(hi) / 1e6
		st.slow = append(st.slow, ms)
		st.mean = append(st.mean, float64(sum)/float64(len(rec.dur))/1e6)
		skews = append(skews, float64(hi-lo)/1e6)
		b := (rec.begin[i] - t0) / blockLen
		perBlock[b] = append(perBlock[b], ms)
	}
	for _, b := range perBlock {
		if len(b) > 0 {
			st.blockP50 = append(st.blockP50, median(b))
			st.blockIQ = append(st.blockIQ, iqMean(b))
		}
	}
	st.skew = median(skews)
	if s := rec.steps["skew"]; len(s) >= n {
		st.skew = median(nsToMs(s[rec.from:n]))
	}
	return st
}

// stepP50 is the median of a recorded sub-call over the measured
// passes, ms; NaN when the workload has no such step.
func stepP50(rec *recorder, name string) float64 {
	s := rec.steps[name]
	if len(s) <= rec.from {
		return math.NaN()
	}
	return median(nsToMs(s[rec.from:]))
}
