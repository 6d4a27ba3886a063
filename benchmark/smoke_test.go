package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"kylix/internal/leakcheck"
)

// TestSmoke runs every workload briefly at a small index space and
// holds the program to BENCHMARK.json: the same workloads, every metric
// emitted exactly once with the listed unit, the oracle passing and no
// goroutine left behind. It asserts nothing about time.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	want := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if _, dup := want[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		want[m.Name] = m.Unit
	}

	small := plan{
		sizes:    sizes{logN: 11, tcpLogN: 11, largeLogN: 12, batches: 8, ringPasses: 20, probeCalls: 20},
		seed:     20140901,
		untraced: 300 * time.Millisecond, traced: 200 * time.Millisecond, setups: 2,
	}
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, spec.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			if raceEnabled && strings.Contains(name, "-tcp-") {
				// A rank reuses an arena send buffer two rounds after
				// tcpnet's writer goroutine encoded it. The peers' replies
				// that let the rank get that far order the two accesses, but
				// on Linux the race detector sees no happens-before through
				// a socket and reports every such pair.
				t.Skip("warm Reduce over TCP is ordered by protocol causality the race detector cannot see")
			}
			defer leakcheck.Check(t)()
			res, err := runWorkload(name, small, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			var out bytes.Buffer
			if err := emit(res, "all", false, "", &out); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s: emitted %+v, BENCHMARK.json wants unit %q", name, got, unit)
				}
			}
			for name := range line.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s is emitted but not in BENCHMARK.json", name)
				}
			}
		})
	}
}

// TestOracleRejects holds the reference check to catching a wrong sum, a
// short result and a NaN.
func TestOracleRejects(t *testing.T) {
	sets := [][]int32{{0, 2}, {2, 3}}
	vals := [][]float32{{1, 2}, {4, 8}}
	dense := denseSum(4, 1, sets, vals)
	good := [][]float32{{1, 6}, {6, 8}}
	if !matches(good, sets, 1, dense, 1e-5) {
		t.Fatal("the exact sums do not match")
	}
	nan := float32(math.NaN())
	for _, bad := range [][][]float32{{{1, 2}, {6, 8}}, {{1, 6}, {6}}, {{1, 6}, {nan, 8}}} {
		if matches(bad, sets, 1, dense, 1e-5) {
			t.Errorf("%v passes the check", bad)
		}
	}
}
