// Package bench regenerates every table and figure of the paper's
// evaluation section (ICPP 2014, §VII) as text tables: the packet-size
// throughput curve (Fig 2), the density function (Fig 4), per-layer
// communication volumes (Fig 5), topology timing comparisons (Fig 6),
// the thread-count sweep (Fig 7), the system comparison on PageRank
// (Fig 8), scaling with cluster size (Fig 9), and the fault-tolerance
// cost table (Table I).
//
// Workloads are synthetic power-law datasets calibrated to the paper's
// measured partition densities (0.21 Twitter-like, 0.035 Yahoo-like) at
// reduced scale; timing columns are modelled EC2 seconds obtained by
// pushing the *measured* traffic of real protocol runs through the
// netsim cost model. Shape fidelity — who wins, by what factor, where
// curves bend — is the reproduction target, not absolute seconds (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"strings"

	"kylix/internal/netsim"
	"kylix/internal/powerlaw"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Scale sizes the synthetic experiments. The paper's setup is 64
// machines over 60M/1.4B-feature datasets; Default shrinks the feature
// space (keeping densities and exponents) so everything runs in seconds
// on one host, and Quick shrinks further for unit tests.
type Scale struct {
	// N is the feature-space (vertex) size.
	N int64
	// Machines is the cluster size for the 64-node experiments.
	Machines int
	// EdgesPerVertex sizes the PageRank graphs.
	EdgesPerVertex int
	// PageRankIters is the iteration count for system comparisons.
	PageRankIters int
	// Seed fixes all synthetic draws.
	Seed int64
}

// DefaultScale is used by cmd/kylix-bench.
func DefaultScale() Scale {
	return Scale{N: 1 << 16, Machines: 64, EdgesPerVertex: 16, PageRankIters: 3, Seed: 20140901}
}

// QuickScale keeps unit tests fast: the feature space shrinks but the
// machine count stays at the paper's 64 — the topology contrasts
// (8x4x2 vs 64 vs 2^6) only exist at full cluster width.
func QuickScale() Scale {
	return Scale{N: 1 << 13, Machines: 64, EdgesPerVertex: 8, PageRankIters: 2, Seed: 20140901}
}

// scaledEC2 returns the EC2 cost model with its per-message constants
// shrunk by the experiment's data-scale factor: the ratio of the
// experiment's per-node data bytes to the corresponding paper
// experiment's. Scaling the half-throughput packet size and latency
// together with the data keeps the dimensionless message-size/knee
// ratios — and therefore every figure's shape — equal to the full-size
// experiment's. (Incast, copy and compute terms are ratios of byte
// volumes and need no scaling.)
func scaledEC2(expNodeBytes, paperNodeBytes float64) netsim.Model {
	m := netsim.EC2()
	f := expNodeBytes / paperNodeBytes
	m.MsgOverheadSec *= f
	m.LatencySec *= f
	return m
}

// nodeBytes is the expected per-node data volume of a profile at a
// given feature count (4-byte elements).
func (p profile) nodeBytes(n int64) float64 { return p.density * float64(n) * 4 }

// modelFor builds the scaled model for a profile at experiment scale.
func modelFor(p profile, sc Scale) netsim.Model {
	return scaledEC2(p.nodeBytes(sc.N), p.paperNodeBytes)
}

// The two dataset profiles of the evaluation.
type profile struct {
	name    string
	density float64
	alpha   float64
	// degrees is the paper's optimal configuration at 64 machines.
	degrees []int
	// paperNodeBytes is the per-node data volume of the corresponding
	// paper experiment (density x vertices x 4 bytes), the anchor the
	// cost model is scaled against.
	paperNodeBytes float64
}

func twitterProfile() profile {
	return profile{
		name: "twitter-like", density: 0.21, alpha: 0.8,
		degrees:        []int{8, 4, 2},
		paperNodeBytes: 0.21 * 60e6 * 4, // ~50 MB
	}
}

func yahooProfile() profile {
	return profile{
		name: "yahoo-like", density: 0.035, alpha: 0.8,
		degrees:        []int{16, 4},
		paperNodeBytes: 0.035 * 1.4e9 * 4, // ~196 MB
	}
}

// scaleDegrees adapts a 64-machine degree vector to a smaller test
// cluster while keeping the heterogeneous shape (largest first).
func scaleDegrees(degrees []int, m int) []int {
	prod := 1
	for _, d := range degrees {
		prod *= d
	}
	if prod == m {
		return degrees
	}
	// Factor m greedily into non-increasing factors echoing the shape.
	var out []int
	remaining := m
	for _, d := range degrees {
		if remaining == 1 {
			break
		}
		f := gcd(remaining, d)
		if f < 2 {
			f = powerlaw.SmallestPrimeFactor(remaining)
		}
		out = append(out, f)
		remaining /= f
	}
	for remaining > 1 {
		f := powerlaw.SmallestPrimeFactor(remaining)
		out = append(out, f)
		remaining /= f
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f6(v float64) string  { return fmt.Sprintf("%.6f", v) }
func fi(v int64) string    { return fmt.Sprintf("%d", v) }
func fmtMB(v int64) string { return fmt.Sprintf("%.2f", float64(v)/(1<<20)) }
