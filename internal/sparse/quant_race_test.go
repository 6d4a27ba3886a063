//go:build race

package sparse

import "testing"

// TestRaceBuildRunsTheGoForms: the race detector cannot see inside
// assembly, so a -race build must link the codec's Go forms, whose
// every access it watches.
func TestRaceBuildRunsTheGoForms(t *testing.T) {
	if codecAsm {
		t.Fatal("a -race build links the codec assembly")
	}
}
