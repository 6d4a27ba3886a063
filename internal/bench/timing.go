package bench

import (
	"fmt"

	"kylix/internal/netsim"
	"kylix/internal/sparse"
	"kylix/internal/topo"
)

// Figure6 compares config and reduce times across topologies — direct
// all-to-all, the optimal heterogeneous butterfly, and the binary
// butterfly — on both dataset profiles. Times are modelled EC2 seconds
// from measured traffic; the paper reports the optimal butterfly 3-5x
// faster than the alternatives.
func Figure6(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 6: config/reduce time by topology (modelled EC2 seconds)",
		Note:   "optimal butterfly keeps packets above the efficient floor; direct\nall-to-all fragments them; binary butterfly pays extra layers",
		Header: []string{"dataset", "topology", "degrees", "configSec", "reduceSec", "totalSec", "vsOptimal"},
	}
	for _, p := range []profile{twitterProfile(), yahooProfile()} {
		model := modelFor(p, sc)
		w, err := genWorkload(p, sc.N, sc.Machines, sc.Seed)
		if err != nil {
			return nil, err
		}
		type topoCase struct {
			name    string
			degrees []int
		}
		cases := []topoCase{
			{"optimal", scaleDegrees(p.degrees, sc.Machines)},
			{"direct", topo.Direct(sc.Machines)},
		}
		if bin, err := topo.Binary(sc.Machines); err == nil {
			cases = append(cases, topoCase{"binary", bin})
		}
		totals := make([]float64, len(cases))
		reports := make([]netsim.Report, len(cases))
		for i, tc := range cases {
			res, err := runAllreduce(w, tc.degrees, 1, nil, 1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, tc.name, err)
			}
			reports[i] = netsim.Estimate(res.col.Layers(), res.col.Machines(), model, model.Cores)
			totals[i] = reports[i].TotalSec()
		}
		for i, tc := range cases {
			t.Rows = append(t.Rows, []string{
				p.name, tc.name, topo.MustNew(tc.degrees).String(),
				f6(reports[i].ConfigSec), f6(reports[i].ReduceSec), f6(totals[i]),
				fmt.Sprintf("%.1fx", totals[i]/totals[0]),
			})
		}
	}
	return t, nil
}

// Figure7 reproduces the thread-count sweep: the same Twitter-like
// allreduce traffic timed under 1..32 send/receive threads per node.
// Gains are large up to ~4 threads, marginal beyond 16 (the hardware
// thread count of the paper's cc2.8xlarge nodes).
func Figure7(sc Scale) (*Table, error) {
	p := twitterProfile()
	model := modelFor(p, sc)
	w, err := genWorkload(p, sc.N, sc.Machines, sc.Seed)
	if err != nil {
		return nil, err
	}
	res, err := runAllreduce(w, scaleDegrees(p.degrees, sc.Machines), 1, nil, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 7: allreduce runtime vs thread count (modelled EC2 seconds)",
		Note:   "per-message overhead parallelizes across threads until the 16\nhardware threads are saturated; wire time is a floor",
		Header: []string{"threads", "configSec", "reduceSec", "totalSec"},
	}
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		rep := netsim.Estimate(res.col.Layers(), res.col.Machines(), model, threads)
		t.Rows = append(t.Rows, []string{
			fi(int64(threads)), f6(rep.ConfigSec), f6(rep.ReduceSec), f6(rep.TotalSec()),
		})
	}
	return t, nil
}

// TableI reproduces the fault-tolerance cost table: the optimal
// unreplicated network, a half-size unreplicated reference, and the
// replicated network under 0-3 machine failures. Replication costs a
// modest constant factor (paper: ~25% on config, ~60% on reduce) and
// runtime is independent of the failure count.
func TableI(sc Scale) (*Table, error) {
	p := twitterProfile()
	model := modelFor(p, sc)
	m := sc.Machines
	if m%2 != 0 {
		return nil, fmt.Errorf("bench: TableI needs an even machine count, got %d", m)
	}
	w64, err := genWorkload(p, sc.N, m, sc.Seed)
	if err != nil {
		return nil, err
	}
	// The 32-part workload merges partition pairs: same total data.
	w32 := &workload{n: w64.n}
	for i := 0; i < m/2; i++ {
		union, maps := sparse.UnionWithMaps([]sparse.Set{w64.sets[i], w64.sets[i+m/2]})
		vals := make([]float32, len(union))
		sparse.CombineInto(sparse.Sum, vals, maps[0], w64.vals[i], 1)
		sparse.CombineInto(sparse.Sum, vals, maps[1], w64.vals[i+m/2], 1)
		w32.sets = append(w32.sets, union)
		w32.vals = append(w32.vals, vals)
	}

	fullDegrees := scaleDegrees(p.degrees, m)
	halfDegrees := scaleDegrees(p.degrees, m/2)
	t := &Table{
		Title: "Table I: cost of fault tolerance (modelled EC2 seconds)",
		Note: fmt.Sprintf("%s unreplicated (%d machines) vs %s replication=2 (%d machines, data in %d parts)\nwith 0-3 dead machines; runtime is independent of the failure count",
			topo.MustNew(fullDegrees).String(), m, topo.MustNew(halfDegrees).String(), m, m/2),
		Header: []string{"network", "replication", "machines", "dead", "configSec", "reduceSec"},
	}
	addRow := func(degrees []int, repl int, dead []int, w *workload) error {
		res, err := runAllreduce(w, degrees, repl, dead, 1)
		if err != nil {
			return err
		}
		rep := netsim.Estimate(res.col.Layers(), res.col.Machines(), model, model.Cores)
		t.Rows = append(t.Rows, []string{
			topo.MustNew(degrees).String(), fi(int64(repl)),
			fi(int64(len(w.sets) * repl)), fi(int64(len(dead))),
			f6(rep.ConfigSec), f6(rep.ReduceSec),
		})
		return nil
	}
	if err := addRow(fullDegrees, 1, nil, w64); err != nil {
		return nil, err
	}
	if err := addRow(halfDegrees, 1, nil, w32); err != nil {
		return nil, err
	}
	for nDead := 0; nDead <= 3; nDead++ {
		// Kill secondary replicas m/2, m/2+1, ...: distinct replica
		// groups, so the network keeps one live member everywhere.
		dead := make([]int, 0, nDead)
		for i := 0; i < nDead; i++ {
			dead = append(dead, m/2+i)
		}
		if err := addRow(halfDegrees, 2, dead, w32); err != nil {
			return nil, err
		}
	}
	return t, nil
}
