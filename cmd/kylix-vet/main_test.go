package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolProtocol builds the real binary and drives it the two ways
// production does: through `go vet -vettool` (the unitchecker protocol:
// -V=full handshake, per-package cfg files, vetx fact plumbing) and
// standalone. A clean package set must pass, and a fixture with known
// violations must fail with the analyzer named in the output.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets packages")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "kylix-vet")
	if out, err := command(root, "go", "build", "-o", bin, "./cmd/kylix-vet").CombinedOutput(); err != nil {
		t.Fatalf("building kylix-vet: %v\n%s", err, out)
	}

	// Clean packages: go vet with the tool must succeed.
	if out, err := command(root, "go", "vet", "-vettool="+bin,
		"./internal/core/...", "./internal/comm/...", "./internal/sparse/...").CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool over clean packages failed: %v\n%s", err, out)
	}

	// A fixture with violations: go vet must fail and name the check.
	out, err := command(root, "go", "vet", "-vettool="+bin,
		"./internal/analysis/testdata/src/commtest").CombinedOutput()
	if err == nil {
		t.Errorf("go vet -vettool accepted the commtest fixture:\n%s", out)
	} else if !strings.Contains(string(out), "[commcheck]") {
		t.Errorf("go vet -vettool output does not name commcheck: %v\n%s", err, out)
	}

	// Cross-package facts through vetx files: hotpathtest's violations
	// include one that lives in hotpathdep and must be reported at the
	// hotpathtest call site.
	out, err = command(root, "go", "vet", "-vettool="+bin,
		"./internal/analysis/testdata/src/hotpathtest").CombinedOutput()
	if err == nil {
		t.Errorf("go vet -vettool accepted the hotpathtest fixture:\n%s", out)
	} else if !strings.Contains(string(out), "reaches make") {
		t.Errorf("transitive hotpathdep finding missing from vet output: %v\n%s", err, out)
	}

	// Lock-order facts through vetx files: lockordertest's inversion
	// against lockorderdep's beta class is only detectable when the
	// dep's LockNames and acquisition facts crossed the package
	// boundary, so this pins the gob fact plumbing for lockorder.
	out, err = command(root, "go", "vet", "-vettool="+bin,
		"./internal/analysis/testdata/src/lockordertest").CombinedOutput()
	if err == nil {
		t.Errorf("go vet -vettool accepted the lockordertest fixture:\n%s", out)
	} else {
		for _, want := range []string{"[lockorder]", `"beta"`, "lock-order cycle"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("cross-package lockorder finding missing %q: %v\n%s", want, err, out)
			}
		}
	}

	// Standalone mode on the same fixture.
	out, err = command(root, bin, "./internal/analysis/testdata/src/hotpathtest").CombinedOutput()
	if err == nil {
		t.Errorf("standalone kylix-vet accepted the hotpathtest fixture:\n%s", out)
	} else if !strings.Contains(string(out), "[hotpathalloc]") {
		t.Errorf("standalone output does not name hotpathalloc: %v\n%s", err, out)
	}

	// Standalone -json: a findings run exits 1 with a parseable array
	// attributing file, line and analyzer.
	jsonCmd := command(root, bin, "-json", "./internal/analysis/testdata/src/lockobstest")
	jsonOut, err := jsonCmd.Output()
	if err == nil {
		t.Errorf("-json run over lockobstest fixture exited 0")
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if jerr := json.Unmarshal(jsonOut, &findings); jerr != nil {
		t.Errorf("-json output not parseable: %v\n%s", jerr, jsonOut)
	} else if len(findings) == 0 {
		t.Errorf("-json output empty for a fixture with violations")
	} else {
		for _, f := range findings {
			if f.Analyzer != "lockobs" || f.File == "" || f.Line == 0 || f.Message == "" {
				t.Errorf("malformed -json finding: %+v", f)
			}
		}
	}

	// Standalone -json on a clean package: empty array, exit 0.
	jsonOut, err = command(root, bin, "-json", "./internal/sparse").Output()
	if err != nil {
		t.Errorf("-json over clean package failed: %v", err)
	} else if strings.TrimSpace(string(jsonOut)) != "[]" {
		t.Errorf("-json clean output not an empty array: %s", jsonOut)
	}

	// The -V=full handshake go vet uses for build-cache keying.
	out, err = command(root, bin, "-V=full").CombinedOutput()
	if err != nil || !strings.HasPrefix(string(out), "kylix-vet version ") {
		t.Errorf("-V=full handshake broken: %v\n%s", err, out)
	}
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	return cmd
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}
