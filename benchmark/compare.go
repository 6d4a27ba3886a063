package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// printSpread prints, per workload and end-to-end metric, the median
// and quartiles over repeated sets and the interquartile distance as a
// share of the median: the number the contract holds against a bound.
func printSpread(sets [][]*result, out io.Writer) {
	fmt.Fprintf(out, "\nspread over %d sets:\n", len(sets))
	for i, first := range sets[0] {
		fmt.Fprintf(out, "%s\n", first.Workload)
		for _, m := range endToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[i].EndToEnd[m.Name])
			}
			q := quartiles(xs)
			fmt.Fprintf(out, "  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f\n", m.Name, q[1], q[0], q[2], (q[2]-q[0])/q[1])
		}
	}
}

// medians folds repeated sets into one: per workload the median of each
// end-to-end metric, and the digest if every set agrees on it.
func medians(sets [][]*result) []*result {
	var out []*result
	for i, first := range sets[0] {
		m := &result{Workload: first.Workload, Digest: first.Digest, EndToEnd: values{}}
		for _, def := range endToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[i].EndToEnd[def.Name])
			}
			m.EndToEnd[def.Name] = median(xs)
		}
		for _, set := range sets {
			if set[i].Digest != first.Digest {
				m.Digest = "differs between runs"
			}
		}
		out = append(out, m)
	}
	return out
}

// checkAgreement is -selfcheck: two sets of runs of one commit (each the
// medians of -repeat runs) must give the same digests and end-to-end
// values that differ by no more than the metric's bound. A set-up takes
// tens of milliseconds and a process's set-ups run up to 30 % fast or
// slow together, so single runs often disagree on setup_s; -repeat 5
// settles it.
func checkAgreement(a, b []*result, out io.Writer) (bool, error) {
	limits, err := readLimits(specPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintln(out, "\nselfcheck: second set against first")
	for i, ra := range a {
		rb := b[i]
		if ra.Digest != rb.Digest {
			ok = false
			fmt.Fprintf(out, "  %-18s digest %s != %s  FAIL\n", ra.Workload, ra.Digest, rb.Digest)
		}
		for _, m := range endToEnd {
			x, y := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			diff := math.Abs(y-x) / x
			verdict := "ok"
			if !(diff <= limits[m.Name].Bound) {
				ok, verdict = false, "FAIL"
			}
			fmt.Fprintf(out, "  %-18s %-24s %-12.6g %-12.6g diff %.4f bound %.4f  %s\n", ra.Workload, m.Name, x, y, diff, limits[m.Name].Bound, verdict)
		}
	}
	return ok, nil
}

// compareFiles judges a change against its parent from two files of
// -append records, taken by running the two checkouts alternately, in
// the same order of workloads and seeds, swapping which side goes first
// from pair to pair. The rule is the measurement guide's:
//
//   - fewer than ten pairs decide nothing;
//   - a gain needs the change to win at least nine pairs in ten (ties
//     count for neither side) and the medians to differ by more than the
//     distance between the parent's own quartiles;
//   - a regression is a median worse than the parent's by more than the
//     metric's bound in BENCHMARK.json;
//   - a difference inside a spread wider than the bound is unresolved,
//     not "unchanged".
func compareFiles(arg string, out io.Writer) error {
	parentPath, changePath, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants parent.jsonl,change.jsonl")
	}
	limits, err := readLimits(specPath)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		p, c := parent[name], change[name]
		pairs := min(len(p), len(c))
		if pairs == 0 {
			continue
		}
		fmt.Fprintf(out, "%s  (%d pairs)\n", name, pairs)
		for _, m := range endToEnd {
			lim := limits[m.Name]
			var ps, cs []float64
			wins, losses := 0, 0
			for i := 0; i < pairs; i++ {
				x, y := p[i].EndToEnd[m.Name], c[i].EndToEnd[m.Name]
				ps, cs = append(ps, x), append(cs, y)
				if w := lim.worsening(x, y); w < 0 {
					wins++
				} else if w > 0 {
					losses++
				}
			}
			pq, cq := quartiles(ps), quartiles(cs)
			iqr := pq[2] - pq[0]
			worse := lim.worsening(pq[1], cq[1])
			verdict := "no change shown"
			switch {
			case worse > lim.Bound:
				verdict = "REGRESSION"
			case iqr/pq[1] > lim.Bound:
				verdict = "unresolved: parent spread exceeds the bound"
			case pairs < 10:
				verdict = "too few pairs to claim anything"
			case float64(wins) >= 0.9*float64(pairs) && math.Abs(cq[1]-pq[1]) > iqr:
				verdict = "GAIN"
			}
			fmt.Fprintf(out, "  %-24s parent %-11.6g [%.6g .. %.6g]  change %-11.6g [%.6g .. %.6g]  wins %d losses %d  %s\n",
				m.Name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], wins, losses, verdict)
		}
	}
	return nil
}

// readRecords groups a file of -append records by workload, in order.
func readRecords(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		r := new(result)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}
