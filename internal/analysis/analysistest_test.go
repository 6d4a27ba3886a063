package analysis_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kylix/internal/analysis"
)

// The fixture tests mirror x/tools' analysistest: each package under
// testdata/src carries `// want "substring"` comments on the lines
// where a diagnostic must appear, and every diagnostic must be claimed
// by exactly one want. Fixtures are real module packages (excluded
// from ./... wildcards by the testdata convention) loaded through the
// same go list pipeline as production runs.

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, analysis.HotPathAlloc, "hotpathtest")
}

func TestLockObsFixture(t *testing.T) {
	runFixture(t, analysis.LockObs, "lockobstest")
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, analysis.Determinism, "determtest", "determfunc")
}

func TestCommCheckFixture(t *testing.T) {
	runFixture(t, analysis.CommCheck, "commtest")
}

func TestGoLeakFixture(t *testing.T) {
	runFixture(t, analysis.GoLeak, "goleaktest")
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, analysis.LockOrder, "lockordertest")
}

// TestAtomicMixFixture: lockorder flags every call to a sync/atomic
// function, and typed atomic.* values pass.
func TestAtomicMixFixture(t *testing.T) {
	runFixture(t, analysis.LockOrder, "atomicmixtest")
}

// TestRepoIsClean is the integration gate: the full suite over the
// whole module must produce zero findings. Reintroducing an
// observer-under-mutex call or an allocating hotpath construct fails
// this test (and `make check`, which runs the same suite via go vet).
func TestRepoIsClean(t *testing.T) {
	ld, err := analysis.Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	diags, err := ld.Run(analysis.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestByName(t *testing.T) {
	got, err := analysis.ByName("lockobs,commcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "lockobs" || got[1].Name != "commcheck" {
		t.Fatalf("ByName selected %v", got)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

var (
	wantRE  = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quoteRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// runFixture loads the named testdata packages, runs one analyzer, and
// reconciles its diagnostics against the fixtures' want comments.
func runFixture(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	patterns := make([]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = "./internal/analysis/testdata/src/" + f
	}
	ld, err := analysis.Load(repoRoot(t), patterns...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	diags, err := ld.Run([]*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, ld)
	if len(wants) == 0 {
		t.Fatalf("fixture %v has no want comments", fixtures)
	}
	for _, d := range diags {
		if d.Check != a.Name {
			t.Errorf("diagnostic from wrong analyzer %q: %s", d.Check, d)
			continue
		}
		if w := claim(wants, d.Pos.Filename, d.Pos.Line, d.Message); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: missing diagnostic containing %q", filepath.Base(w.file), w.line, w.substr)
		}
	}
}

// claim finds the first unmatched want on the diagnostic's line whose
// substring occurs in the message, and marks it matched.
func claim(wants []*want, file string, line int, message string) *want {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if strings.Contains(message, w.substr) {
			w.matched = true
			return w
		}
	}
	return nil
}

// collectWants scans the loaded fixture sources for want comments.
func collectWants(t *testing.T, ld *analysis.Loader) []*want {
	t.Helper()
	var wants []*want
	for _, lp := range ld.Pkgs {
		if !lp.Target {
			continue
		}
		for _, f := range lp.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := ld.Fset.Position(c.Pos())
					quoted := quoteRE.FindAllString(m[1], -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, q := range quoted {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, substr: s})
					}
				}
			}
		}
	}
	return wants
}

// repoRoot resolves the module root so tests work from any package dir.
func repoRoot(t *testing.T) string {
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

// Example output shape, kept close to go vet's own format.
func ExampleDiagnostic_String() {
	d := analysis.Diagnostic{Check: "lockobs", Message: "observer under mutex"}
	d.Pos.Filename = "mailbox.go"
	d.Pos.Line = 42
	d.Pos.Column = 3
	fmt.Println(d)
	// Output: mailbox.go:42:3: [lockobs] observer under mutex
}
