package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"kylix/internal/netsim"
)

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %q missing cell (%d,%d):\n%s", tab.Title, row, col, tab.Render())
	}
	return tab.Rows[row][col]
}

func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, tab, row, col), "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, s)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestScaleDegrees(t *testing.T) {
	cases := []struct {
		degrees []int
		m       int
	}{
		{[]int{8, 4, 2}, 64}, {[]int{8, 4, 2}, 16}, {[]int{16, 4}, 8},
		{[]int{8, 4, 2}, 6}, {[]int{2}, 2}, {[]int{4}, 1},
	}
	for _, c := range cases {
		got := scaleDegrees(c.degrees, c.m)
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != c.m {
			t.Errorf("scaleDegrees(%v, %d) = %v (product %d)", c.degrees, c.m, got, prod)
		}
	}
}

func TestFigure2ModelShape(t *testing.T) {
	tab := Figure2(netsim.EC2())
	if len(tab.Rows) < 5 {
		t.Fatal("too few sweep points")
	}
	prev := -1.0
	for r := range tab.Rows {
		g := cellF(t, tab, r, 1)
		if g <= prev {
			t.Fatalf("goodput not monotone at row %d:\n%s", r, tab.Render())
		}
		prev = g
	}
	// The 5 MB row reaches at least 75% of peak.
	for r := range tab.Rows {
		if cell(t, tab, r, 0) == "5.00" && cellF(t, tab, r, 2) < 75 {
			t.Fatalf("5MB packets below 75%%:\n%s", tab.Render())
		}
	}
}

// TestFigure2Measured checks that the loopback sweep produces its
// table. What the table should show (throughput rising with packet
// size) is a wall-clock shape, which a loaded box can bend; the bench
// lane asserts it (scripts/bench.sh --gate, BenchmarkFigure2Measured).
func TestFigure2Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("network sweep")
	}
	tab, err := Figure2Measured(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("want 7 packet sizes:\n%s", tab.Render())
	}
	for r := range tab.Rows {
		if g := cellF(t, tab, r, 1); g < 0 {
			t.Fatalf("negative throughput at row %d:\n%s", r, tab.Render())
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tab := Figure4()
	// Density increases down the rows for every alpha column.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for r := range tab.Rows {
			v := cellF(t, tab, r, col)
			if v < prev {
				t.Fatalf("density not monotone in lambda (col %d):\n%s", col, tab.Render())
			}
			prev = v
		}
	}
	// At lambda = lambda_0.9 the density is ~0.9 in every column.
	for r := range tab.Rows {
		if cell(t, tab, r, 0) == "1.000" {
			for col := 1; col <= 3; col++ {
				if v := cellF(t, tab, r, col); v < 0.88 || v > 0.92 {
					t.Fatalf("normalization broken (col %d = %f)", col, v)
				}
			}
		}
	}
}

func TestFigure5KylixShape(t *testing.T) {
	tab, err := Figure5(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Per dataset: measured volume non-increasing down the layers.
	byDataset := map[string][]float64{}
	for r := range tab.Rows {
		ds := cell(t, tab, r, 0)
		byDataset[ds] = append(byDataset[ds], cellF(t, tab, r, 3))
	}
	if len(byDataset) != 2 {
		t.Fatalf("expected 2 datasets:\n%s", tab.Render())
	}
	for ds, vols := range byDataset {
		for i := 1; i < len(vols); i++ {
			if vols[i] > vols[i-1]*1.05 {
				t.Fatalf("%s: volume grew at layer %d (%v)\n%s", ds, i, vols, tab.Render())
			}
		}
		// Near-optimality: total within layers x top volume.
		total := 0.0
		for _, v := range vols {
			total += v
		}
		if total > float64(len(vols))*vols[0] {
			t.Fatalf("%s: total %f exceeds layers x top %f", ds, total, vols[0])
		}
	}
}

func TestFigure6OptimalWins(t *testing.T) {
	tab, err := Figure6(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in dataset groups with "optimal" first; every other
	// topology's vsOptimal ratio must be > 1.
	for r := range tab.Rows {
		topoName := cell(t, tab, r, 1)
		ratio := cellF(t, tab, r, 6)
		if topoName == "optimal" {
			if ratio != 1.0 {
				t.Fatalf("optimal row ratio %f:\n%s", ratio, tab.Render())
			}
		} else if ratio <= 1.0 {
			t.Fatalf("%s not slower than optimal:\n%s", topoName, tab.Render())
		}
	}
}

func TestFigure7ThreadingShape(t *testing.T) {
	tab, err := Figure7(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, len(tab.Rows))
	for r := range tab.Rows {
		totals[r] = cellF(t, tab, r, 3)
	}
	// Monotone non-increasing; 1->4 threads is a big win; 16->32 is nil.
	for i := 1; i < len(totals); i++ {
		if totals[i] > totals[i-1] {
			t.Fatalf("threading hurt:\n%s", tab.Render())
		}
	}
	if totals[0] < 1.5*totals[2] {
		t.Fatalf("1->4 threads gain too small:\n%s", tab.Render())
	}
	if totals[len(totals)-1] != totals[len(totals)-2] {
		t.Fatalf("gains continued past 16 threads:\n%s", tab.Render())
	}
}

func TestTableIShape(t *testing.T) {
	tab, err := TableI(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("want 6 rows:\n%s", tab.Render())
	}
	// Replicated rows (2..5) have identical-ish times regardless of dead
	// count: within 30% of each other.
	base := cellF(t, tab, 2, 5)
	for r := 3; r <= 5; r++ {
		v := cellF(t, tab, r, 5)
		if v > base*1.3 || v < base*0.7 {
			t.Fatalf("replicated reduce time varies with failures:\n%s", tab.Render())
		}
	}
	// Replication costs more than the half-size unreplicated network but
	// less than 3x (the paper: +25% config, +60% reduce).
	halfReduce := cellF(t, tab, 1, 5)
	replReduce := cellF(t, tab, 2, 5)
	if replReduce < halfReduce || replReduce > 3*halfReduce {
		t.Fatalf("replication overhead out of band (half %f, repl %f):\n%s", halfReduce, replReduce, tab.Render())
	}
}

func TestFigure8SystemOrdering(t *testing.T) {
	tab, err := Figure8(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// For every dataset: kylix <= direct < mapreduce, with mapreduce
	// orders of magnitude slower.
	for r := 0; r < len(tab.Rows); r += 3 {
		kylixSec := cellF(t, tab, r, 2)
		directSec := cellF(t, tab, r+1, 2)
		mrSec := cellF(t, tab, r+2, 2)
		if directSec < kylixSec {
			t.Fatalf("direct beat kylix:\n%s", tab.Render())
		}
		if r == 0 && directSec < 2.5*kylixSec {
			t.Fatalf("twitter-like direct gap only %.1fx, paper band is 3-7x:\n%s", directSec/kylixSec, tab.Render())
		}
		if mrSec < 50*kylixSec {
			t.Fatalf("hadoop-proxy gap only %.0fx, want >> 50x:\n%s", mrSec/kylixSec, tab.Render())
		}
	}
}

func TestFigure9ScalingShape(t *testing.T) {
	sc := QuickScale()
	tab, err := Figure9(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("too few sizes:\n%s", tab.Render())
	}
	// Compute time per iteration shrinks with machines; comm share grows.
	firstCompute := cellF(t, tab, 0, 2)
	lastCompute := cellF(t, tab, len(tab.Rows)-1, 2)
	if lastCompute >= firstCompute {
		t.Fatalf("compute did not shrink with machines:\n%s", tab.Render())
	}
	firstShare := cellF(t, tab, 0, 6)
	lastShare := cellF(t, tab, len(tab.Rows)-1, 6)
	if lastShare < firstShare {
		t.Fatalf("comm share did not grow with machines:\n%s", tab.Render())
	}
	// Speedup at the largest size is substantial (paper: 7-11x at 64
	// over 4; the quick scale lands lower but must clear 3x).
	if sp := cellF(t, tab, len(tab.Rows)-1, 5); sp < 3 {
		t.Fatalf("final speedup only %.1fx:\n%s", sp, tab.Render())
	}
}
