package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kylix"
)

// plan is how one run of one workload spends its time.
type plan struct {
	sizes sizes
	seed  int64
	// untraced and traced are the two measured windows; a zero traced
	// window skips the traced run and the probes.
	untraced, traced time.Duration
	setups           int
}

// planFor splits seconds of measuring by what the run has to report:
// the end-to-end metrics ("0"), the per-layer metrics ("1") or both
// ("all", with the issue's 30:8 split).
func planFor(trace string, seconds float64, seed int64) (plan, error) {
	s := time.Duration(seconds * float64(time.Second))
	p := plan{sizes: fullSizes, seed: seed, setups: 5}
	switch trace {
	case "0":
		p.untraced = s
	case "1":
		p.untraced, p.traced = s*2/5, s*3/5
	case "all":
		p.untraced, p.traced = s, s*8/30
	default:
		return p, fmt.Errorf("-trace %q: want 0, 1 or all", trace)
	}
	return p, nil
}

// result is one run of one workload.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Digest    string `json:"digest"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	EndToEnd  values `json:"end_to_end"`
	PerLayer  values `json:"per_layer,omitempty"`
	// spread holds the block min and max printed beside a value.
	spread map[string][2]float64
}

// runWorkload measures one workload according to p and prints its
// tables to out. A pass that errors or fails the reference check is
// counted in Failed; the error return is for failures that leave
// nothing to report.
func runWorkload(name string, p plan, out io.Writer) (*result, error) {
	w, err := buildWorkload(name, p.sizes, p.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: p.seed, EndToEnd: values{}, PerLayer: values{}, spread: map[string][2]float64{}}
	fmt.Fprintf(out, "\n== %s  (%d ranks, degrees %v, %s, seed %d)\n", name, w.machines, w.degrees, w.transport(), p.seed)

	if err := measureSetup(w, p.setups, res); err != nil {
		return res, err
	}
	runtime.GC()
	warm := min(max(p.untraced/10, 50*time.Millisecond), 2*time.Second)
	untraced, err := measureWindow(w, warm, p.untraced, res)
	if err != nil {
		return res, err
	}
	res.EndToEnd["peak_rss_mb"] = peakRSSMiB()

	rep, err := countOnePass(w)
	if err != nil {
		return res, err
	}
	e2e, layer := trafficMetrics(rep)
	res.EndToEnd.merge(e2e)
	res.PerLayer.merge(layer)

	if p.traced > 0 {
		if err := measureLayers(w, p, warm, untraced, res); err != nil {
			return res, err
		}
	}
	printResult(out, res, p.traced > 0)
	return res, nil
}

// measureSetup times what a caller pays before the first warm pass:
// NewCluster, the loop's cold configure and two arena-warming passes,
// and Close. Input generation is not part of it. A set-up takes tens of
// milliseconds, so beyond the n asked for it repeats until a second has
// gone by (or 5n): the median of five was still moving by a quarter.
func measureSetup(w *workload, n int, res *result) error {
	var total, open, cold, closing []float64
	start := time.Now()
	for i := 0; i < n || (i < 5*n && time.Since(start) < time.Second); i++ {
		t0 := time.Now()
		c, err := w.open()
		if err != nil {
			return err
		}
		t1 := time.Now()
		rec, err := runPasses(w, c, 2, nil)
		t2 := time.Now()
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			res.Attempted++
			res.Failed++
			return err
		}
		t3 := time.Now()
		total = append(total, t3.Sub(t0).Seconds())
		open = append(open, float64(t1.Sub(t0))/1e6)
		cold = append(cold, float64(rec.cold.Load())/1e6)
		closing = append(closing, float64(t3.Sub(t2))/1e6)
	}
	s := sorted(total)
	res.EndToEnd["setup_s"] = median(total)
	res.spread["setup_s"] = [2]float64{s[0], s[len(s)-1]}
	res.PerLayer["kylix.new_cluster_ms"] = median(open)
	res.PerLayer["kylix.configure_cold_ms"] = median(cold)
	res.PerLayer["kylix.close_ms"] = median(closing)
	return nil
}

// measureWindow runs the untraced closed loop and fills the timing
// metrics: end-to-end values are the median of five block values.
func measureWindow(w *workload, warm, window time.Duration, res *result) (passStats, error) {
	c, err := w.open()
	if err != nil {
		return passStats{}, err
	}
	rec, err := runWindow(w, c, warm, window)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	st := summarize(rec)
	res.Attempted += max(st.passes, 1)
	if err != nil {
		res.Failed++
		return st, err
	}
	failed, digest := w.verify()
	res.Failed += failed
	res.Digest = strconv.FormatUint(digest, 16)
	if st.passes == 0 {
		return st, errors.New("the measured window held no pass")
	}

	res.EndToEnd["pass_ms_p50"] = median(st.blockP50)
	rates := make([]float64, len(st.blockIQ))
	for i, ms := range st.blockIQ {
		rates[i] = w.elems / (ms / 1e3)
	}
	res.EndToEnd["elems_per_s_per_node"] = median(rates)
	res.EndToEnd["alloc_kb_per_pass"] = float64(rec.mem1.TotalAlloc-rec.mem0.TotalAlloc) / 1024 / float64(st.passes)
	lo, hi := sorted(st.blockP50), sorted(rates)
	res.spread["pass_ms_p50"] = [2]float64{lo[0], lo[len(lo)-1]}
	res.spread["elems_per_s_per_node"] = [2]float64{hi[0], hi[len(hi)-1]}

	l := res.PerLayer
	l["runtime.allocs_per_pass"] = float64(rec.mem1.Mallocs-rec.mem0.Mallocs) / float64(st.passes)
	l["runtime.gc_cycles"] = float64(rec.mem1.NumGC - rec.mem0.NumGC)
	l["runtime.gc_pause_ms"] = float64(rec.mem1.PauseTotalNs-rec.mem0.PauseTotalNs) / 1e6
	all := sorted(st.slow)
	p50 := quantile(all, 0.5)
	l["driver.pass_ms_p90"] = quantile(all, 0.9)
	l["driver.pass_ms_p99"] = quantile(all, 0.99)
	l["driver.stall_pass_ratio"] = stallRatio(all, p50)
	l["driver.passes_per_s"] = float64(st.passes) / rec.wall.Seconds()
	l["driver.rank_skew_ms"] = st.skew
	l["driver.block_spread"] = (lo[len(lo)-1] - lo[0]) / median(lo)
	l.set("kylix.configure_reduce_ms_p50", stepP50(rec, "configure_reduce"))
	l.set("kylix.reconfigure_ms_p50", stepP50(rec, "reconfigure"))
	l.set("kylix.reduce_after_reconfig_ms_p50", stepP50(rec, "reduce_after_reconfig"))
	l.set("stream.tenant_a_run_ms_p50", stepP50(rec, "tenant_a"))
	l.set("stream.tenant_b_run_ms_p50", stepP50(rec, "tenant_b"))
	if a, b := stepP50(rec, "tenant_a"), stepP50(rec, "tenant_b"); !math.IsNaN(a) {
		l["stream.tenant_pass_ratio"] = min(a, b) / max(a, b)
	}
	return st, nil
}

// stallRatio is the share of passes slower than ten medians.
func stallRatio(sortedMs []float64, p50 float64) float64 {
	stalls := 0
	for _, ms := range sortedMs {
		if ms > 10*p50 {
			stalls++
		}
	}
	return float64(stalls) / float64(len(sortedMs))
}

// measureLayers is the traced half of a run: the same loop under
// WithObservability and WithTrace, then the probes.
func measureLayers(w *workload, p plan, warm time.Duration, untraced passStats, res *result) error {
	c, err := w.open(kylix.WithObservability(), kylix.WithTrace())
	if err != nil {
		return err
	}
	rec, err := runWindow(w, c, warm, p.traced)
	st := summarize(rec)
	res.Attempted += max(st.passes, 1)
	if err == nil && st.passes == 0 {
		err = errors.New("the traced window held no pass")
	}
	if err == nil {
		failed, _ := w.verify()
		res.Failed += failed
		res.PerLayer.merge(tracedMetrics(w, c, len(rec.begin), st))
		res.PerLayer["obs.overhead_ratio"] = median(st.slow) / median(untraced.slow)
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		res.Failed++
		return err
	}

	probes, err := runProbes(w, p.sizes.probeCalls)
	if err != nil {
		return err
	}
	res.PerLayer.merge(probes)
	p50 := median(untraced.slow)
	if w.warm {
		// Enough passes for a median, within about a second and a half.
		direct, err := directPass(w, min(max(int(1500/p50), 30), 1000))
		if err != nil {
			return err
		}
		res.PerLayer["core.direct_pass_ms_p50"] = direct
		if !w.tcp {
			res.PerLayer["kylix.root_overhead_ms"] = p50 - direct
		}
	}
	if w.streams {
		us, err := emptyStreamRun(w, p.sizes.probeCalls)
		if err != nil {
			return err
		}
		res.PerLayer["kylix.stream_run_empty_us"] = us
	}
	if w.warm && w.tcp {
		return largePieces(p, res)
	}
	return nil
}

// largePieces is the standing handle on two things warm-tcp-8 had to
// be sized away from: at the index space the issue first chose, 5-10 %
// of passes stall for 100 ms or more on loopback, and only there are
// value blocks large enough for the combine pool to split them.
// Reported, never gated.
func largePieces(p plan, res *result) error {
	large := p.sizes
	large.tcpLogN, large.ringPasses = large.largeLogN, 0
	w, err := buildWorkload("warm-tcp-8", large, p.seed)
	if err != nil {
		return err
	}
	c, err := w.open(kylix.WithObservability())
	if err != nil {
		return err
	}
	rec, err := runWindow(w, c, 100*time.Millisecond, p.traced/3)
	if st := summarize(rec); err == nil && st.passes > 0 {
		all := sorted(st.slow)
		res.PerLayer["tcpnet.large_pass_ms_p50"] = quantile(all, 0.5)
		res.PerLayer["tcpnet.large_stall_ratio"] = stallRatio(all, quantile(all, 0.5))
		res.PerLayer["par.large_shards_per_pass"] = float64(c.Metrics().Counter("combine_shards").Value()) / float64(len(rec.begin))
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// printResult writes the metric tables: value, unit, and for the
// block-derived metrics the block minimum and maximum.
func printResult(out io.Writer, res *result, layers bool) {
	fmt.Fprintf(out, "ops_attempted %d  ops_failed %d  digest %s\n", res.Attempted, res.Failed, res.Digest)
	table := func(defs []metric, v values) {
		for _, m := range defs {
			x, ok := v[m.Name]
			if !ok {
				fmt.Fprintf(out, "  %-38s %14s\n", m.Name, "n/a")
				continue
			}
			fmt.Fprintf(out, "  %-38s %14.6g %-6s", m.Name, x, m.Unit)
			if s, ok := res.spread[m.Name]; ok {
				fmt.Fprintf(out, " [%.6g .. %.6g]", s[0], s[1])
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintln(out, "end to end:")
	table(endToEnd, res.EndToEnd)
	if layers {
		fmt.Fprintln(out, "per layer:")
		table(perLayer, res.PerLayer)
	}
}
