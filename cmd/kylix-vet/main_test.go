package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolProtocol builds the real binary and drives it the way
// production does: through `go vet -vettool` (the unitchecker protocol:
// -V=full handshake, per-package cfg files, vetx fact plumbing). A
// clean package set must pass, and a fixture with known violations must
// fail with the analyzer named in the output.
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

	// Outside go vet the tool has nothing to run: it points there and
	// exits 2.
	out, err = command(root, bin, "./...").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "go vet -vettool") {
		t.Errorf("bare invocation: want exit 2 naming go vet -vettool, got %v\n%s", err, out)
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
