package analysis_test

import (
	"fmt"
	"go/parser"
	"go/token"
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
// from ./... wildcards by the testdata convention), vetted through the
// same `go vet -vettool=kylix-vet` driver as the gate, test files
// included.

// root is the module root and vettool the kylix-vet binary TestMain
// builds once for every test in the package.
var root, vettool string

func TestMain(m *testing.M) {
	os.Exit(runMain(m))
}

func runMain(m *testing.M) int {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		fmt.Fprintln(os.Stderr, "analysis tests: not inside a module:", err)
		return 1
	}
	root = filepath.Dir(gomod)
	dir, err := os.MkdirTemp("", "kylix-vet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	vettool = filepath.Join(dir, "kylix-vet")
	build := exec.Command("go", "build", "-o", vettool, "./cmd/kylix-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building kylix-vet: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, analysis.HotPathAlloc, "hotpathtest")
}

// TestLockObsFixture: lockorder flags observability calls while an
// obsfree class is held, in test files and closure literals too.
func TestLockObsFixture(t *testing.T) {
	runFixture(t, analysis.LockOrder, "lockobstest")
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
// whole module, test files included, must produce zero findings.
// Reintroducing an observer-under-mutex call or an allocating hotpath
// construct fails this test and `scripts/check.sh vet`, which runs the
// same command.
func TestRepoIsClean(t *testing.T) {
	for _, d := range goVet(t, "./...") {
		t.Errorf("unexpected finding: %s", d.text)
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

// finding is one diagnostic line of go vet's output.
type finding struct {
	file                 string
	line                 int
	check, message, text string
}

var findingRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: \[(\w+)\] (.*)$`)

// goVet runs the suite over the patterns through go vet and returns its
// findings. Any other output line is a driver failure.
func goVet(t *testing.T, patterns ...string) []finding {
	t.Helper()
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + vettool}, patterns...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	var found []finding
	for _, text := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		m := findingRE.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("go vet %s: %v: unexpected output:\n%s", strings.Join(patterns, " "), err, out)
		}
		line, _ := strconv.Atoi(m[2])
		found = append(found, finding{file: filepath.Join(root, m[1]), line: line, check: m[3], message: m[4], text: text})
	}
	if err != nil && len(found) == 0 {
		t.Fatalf("go vet %s: %v\n%s", strings.Join(patterns, " "), err, out)
	}
	return found
}

// runFixture vets the named testdata packages and reconciles the
// findings against the fixtures' want comments: each must come from a,
// and claim one want.
func runFixture(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	var wants []*want
	patterns := make([]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = "./internal/analysis/testdata/src/" + f
		wants = append(wants, collectWants(t, filepath.Join(root, patterns[i]))...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %v has no want comments", fixtures)
	}
	for _, d := range goVet(t, patterns...) {
		if d.check != a.Name {
			t.Errorf("diagnostic from wrong analyzer %q: %s", d.check, d.text)
			continue
		}
		if w := claim(wants, d.file, d.line, d.message); w == nil {
			t.Errorf("unexpected diagnostic: %s", d.text)
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

// collectWants parses a fixture directory's sources, test files
// included, for want comments.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*want
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
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
	return wants
}

// Example output shape, kept close to go vet's own format.
func ExampleDiagnostic_String() {
	d := analysis.Diagnostic{Check: "lockorder", Message: "observer under mutex"}
	d.Pos.Filename = "mailbox.go"
	d.Pos.Line = 42
	d.Pos.Column = 3
	fmt.Println(d)
	// Output: mailbox.go:42:3: [lockorder] observer under mutex
}
