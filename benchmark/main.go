// Command benchmark is the repo benchmark: four closed-loop allreduce
// workloads driven through the root public API, each checked against a
// dense sequential reference, reporting the end-to-end and per-layer
// metrics BENCHMARK.json names. See README.md beside this file.
//
//	go run ./benchmark                      every workload, all metrics
//	go run ./benchmark -workload warm-tcp-8 -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -selfcheck -repeat 5 two sets of five runs must agree
//	go run ./benchmark -repeat 10           median and quartiles per metric
//	go run ./benchmark -compare parent.jsonl,change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const specPath = "BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and end with a one-line JSON result (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", 20140901, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of one run's measured windows")
	trace := fs.String("trace", "all", "0: end-to-end metrics; 1: per-layer metrics from a traced run and the probes; all: both")
	record := fs.Bool("record", false, "with -workload: end with the full result record, not the contract's line")
	appendTo := fs.String("append", "", "with -workload: also append the full result record to this file, for -compare")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of -repeat runs of every workload and fail if an end-to-end median moves by more than its bound")
	repeat := fs.Int("repeat", 1, "run every workload this many times and print median and quartiles per metric")
	compare := fs.String("compare", "", "parent.jsonl,change.jsonl: judge two sets of -append records by the ten-pair rule")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if *compare != "" {
		if err := compareFiles(*compare, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *workload != "" {
		// The box has 2 cores; on a larger one four keep the run
		// comparable (Go before 1.25 ignores a container's CPU quota).
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
		p, err := planFor(*trace, *seconds, *seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, machineLine())
		res, err := runWorkload(*workload, p, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", *workload+":", err)
			if res == nil || res.Attempted == 0 {
				return 1
			}
			res.Failed = max(res.Failed, 1)
		}
		if err := emit(res, *trace, *record, *appendTo, stdout); err != nil {
			return fail(err)
		}
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	n := *repeat
	if *selfcheck {
		n = 2 * *repeat
	}
	var sets [][]*result
	failed := false
	for i := 0; i < n; i++ {
		set, err := runSuite(*seed, *seconds, *trace, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		for _, r := range set {
			failed = failed || r.Failed > 0
		}
		sets = append(sets, set)
	}
	if n > 1 {
		printSpread(sets, stdout)
	}
	if *selfcheck {
		ok, err := checkAgreement(medians(sets[:*repeat]), medians(sets[*repeat:]), stdout)
		if err != nil {
			return fail(err)
		}
		failed = failed || !ok
	}
	if failed {
		return 1
	}
	return 0
}

func machineLine() string {
	cpu, commit := "unknown cpu", "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("kylix benchmark: %s %s/%s, GOMAXPROCS %d of %d CPUs, %s, commit %s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit)
}

// emit ends a -workload run: the contract's result line (or the full
// record) as the last line of stdout.
func emit(res *result, trace string, record bool, appendTo string, stdout io.Writer) error {
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if appendTo != "" {
		f, err := os.OpenFile(appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(full, '\n')); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if record {
		_, err := fmt.Fprintln(stdout, string(full))
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace != "1" {
		for _, m := range endToEnd {
			x, ok := res.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			metrics[m.Name] = value{x, m.Unit}
		}
	}
	if trace != "0" {
		for _, m := range perLayer {
			x, ok := res.PerLayer[m.Name]
			if !ok {
				x = notApplicable
			}
			metrics[m.Name] = value{x, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runSuite runs every workload once, each in a child process of this
// binary so that peak RSS, heap and GC state are the workload's own.
func runSuite(seed int64, seconds float64, trace string, stdout, stderr io.Writer) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var set []*result
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "-workload", name, "-record", "-trace", trace,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var res *result
		sc := bufio.NewScanner(pipe)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, `{"workload"`) {
				res = new(result)
				if err := json.Unmarshal([]byte(line), res); err != nil {
					res = nil
				}
			} else {
				fmt.Fprintln(stdout, line)
			}
		}
		// A child that measured and found failures exits 1 and still
		// reports; only a child without a record is an error here.
		werr := cmd.Wait()
		if res == nil {
			return nil, fmt.Errorf("%s: no result (%v)", name, werr)
		}
		set = append(set, res)
	}
	return set, nil
}
