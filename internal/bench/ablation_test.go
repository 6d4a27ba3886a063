package bench

import (
	"strings"
	"testing"
)

func TestAblationDesignSearchWorkflowNearOptimal(t *testing.T) {
	tab, err := AblationDesignSearch(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// The workflow's pick appears and sits within 1.5x of the brute-force
	// optimum (the paper claims it *is* the optimum; at tiny scales ties
	// and model noise can shuffle the top ranks slightly).
	found := false
	for _, row := range tab.Rows {
		if strings.Contains(row[1], "<- workflow") {
			found = true
			ratio := cellF(t, tab, indexOfRow(tab, row[1]), 3)
			if ratio > 1.5 {
				t.Fatalf("workflow pick %.2fx off the optimum:\n%s", ratio, tab.Render())
			}
		}
	}
	if !found {
		t.Fatalf("workflow choice not marked:\n%s", tab.Render())
	}
	// Ranked ascending.
	prev := 0.0
	for r := range tab.Rows {
		v := cellF(t, tab, r, 2)
		if v < prev {
			t.Fatalf("candidates not sorted:\n%s", tab.Render())
		}
		prev = v
	}
}

func indexOfRow(tab *Table, cell1 string) int {
	for r, row := range tab.Rows {
		if row[1] == cell1 {
			return r
		}
	}
	return -1
}

func TestAblationFusedHalvesMessages(t *testing.T) {
	tab, err := AblationFusedConfigReduce(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 rows:\n%s", tab.Render())
	}
	sepMsgs := cellF(t, tab, 0, 1)
	fusedMsgs := cellF(t, tab, 1, 1)
	// Separate = config + reduce + gather rounds (3 message sweeps);
	// fused = combined + gather (2 sweeps): expect a ~1/3 cut.
	if fusedMsgs >= sepMsgs*0.75 {
		t.Fatalf("fusion saved too few messages (%v vs %v):\n%s", fusedMsgs, sepMsgs, tab.Render())
	}
	sepSec := cellF(t, tab, 0, 3)
	fusedSec := cellF(t, tab, 1, 3)
	if fusedSec >= sepSec {
		t.Fatalf("fusion did not reduce modelled time:\n%s", tab.Render())
	}
}

func TestAblationPacketRacingGainGrowsWithVariance(t *testing.T) {
	tab, err := AblationPacketRacing()
	if err != nil {
		t.Fatal(err)
	}
	// With zero variance racing cannot help (gain ~1x); with heavy tails
	// it must help substantially, and the gain is monotone-ish in sigma.
	first := cellF(t, tab, 0, 3)
	if first < 0.99 || first > 1.01 {
		t.Fatalf("deterministic racing gain %f, want ~1:\n%s", first, tab.Render())
	}
	last := cellF(t, tab, len(tab.Rows)-1, 3)
	if last < 1.5 {
		t.Fatalf("heavy-tail racing gain only %.2fx:\n%s", last, tab.Render())
	}
	prev := 0.0
	for r := range tab.Rows {
		g := cellF(t, tab, r, 3)
		if g < prev*0.95 {
			t.Fatalf("racing gain not growing with variance:\n%s", tab.Render())
		}
		prev = g
	}
}

func TestAblationJitterDESShape(t *testing.T) {
	tab, err := AblationJitterDES(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 sigma rows:\n%s", tab.Render())
	}
	// At sigma=0: optimal is the 1.00x base and binary is slower.
	if v := cellF(t, tab, 0, 1); v < 0.99 || v > 1.01 {
		t.Fatalf("base not normalized:\n%s", tab.Render())
	}
	if cellF(t, tab, 0, 2) <= cellF(t, tab, 0, 1) {
		t.Fatalf("binary not slower at sigma=0:\n%s", tab.Render())
	}
	// Racing never hurts, and helps at the highest sigma.
	last := len(tab.Rows) - 1
	if cellF(t, tab, last, 4) >= cellF(t, tab, last, 1) {
		t.Fatalf("racing did not help at high sigma:\n%s", tab.Render())
	}
	// Makespans grow with sigma for every topology.
	for col := 1; col <= 4; col++ {
		if cellF(t, tab, last, col) <= cellF(t, tab, 0, col) {
			t.Fatalf("column %d not increasing with sigma:\n%s", col, tab.Render())
		}
	}
}
