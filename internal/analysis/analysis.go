// Package analysis is kylix's build-time invariant checker: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis hosting the
// five project-specific analyzers that turn the repo's load-bearing
// contracts into machine-checked lint:
//
//   - hotpathalloc: functions annotated //kylix:hotpath (and their
//     project-local callees) must not contain allocating constructs —
//     the static complement of the scripts/bench.sh --gate 0 allocs/op
//     check on the warm reduction path.
//   - determinism: packages or functions annotated //kylix:deterministic
//     must not read clocks, use the global math/rand generator, or let
//     map iteration order escape into a slice without a sort — the
//     bit-exact replay contract behind the fault fabric and
//     reorder_test.go.
//   - commcheck: comm.Endpoint Send/Recv/RecvGroup/Close and the
//     root stream API's Run/Configure/Close error results must be
//     consumed, and tag arguments must be built from named constants or
//     comm.MakeTag, never untyped integer literals.
//   - goleak: every go statement inside a function annotated
//     //kylix:owned must have a statically visible join or cancel path
//     (WaitGroup.Done, quit/ctx select, result-channel join, or a
//     worker-pool Add before the spawn).
//   - lockorder: mutex fields annotated //kylix:lock <class> form a
//     global lock-acquisition graph (edges flow across packages through
//     gob facts); any cycle is reported as a potential deadlock. A class
//     declared `//kylix:lock <class> obsfree` is never held across an
//     observability hook (comm.Observer, obs.Tracer, metrics) — the
//     observer-outside-the-mailbox-mutex contract. No sync/atomic
//     function is called: atomics are typed atomic.* values.
//
// The suite has one driver: cmd/kylix-vet as a `go vet -vettool`
// backend. cmd/go hands it one package unit at a time, test files
// included, and it typechecks the unit with go/types against the
// compiler export data cmd/go built. It is built on the standard
// library alone, so the checker works in hermetic build environments
// with no module downloads.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics and in
	// //kylix:allow suppression comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports diagnostics through the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the analyzer that produced it.
	Check string
	// Detail is the fine-grained finding kind (e.g. "append",
	// "map-order"), matchable by //kylix:allow check:detail.
	Detail string
	// Message is the human-readable explanation.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// A Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	// Analyzer is the running check.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed sources, comments included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// ModulePath is the main module path ("kylix"); packages under it
	// are project-local and participate in cross-package fact lookups.
	ModulePath string
	// Facts receives this package's exported per-function summaries
	// (populated by hotpathalloc; nil Funcs until then).
	Facts *PackageFacts
	// ImportFacts returns the facts recorded for an already-analyzed
	// project-local package, or nil when unavailable.
	ImportFacts func(path string) *PackageFacts

	// ann is the package's parsed annotation set, shared by analyzers.
	ann *Annotations
	// report receives surviving (unsuppressed) diagnostics.
	report func(Diagnostic)
}

// Reportf files a diagnostic unless the target line (or the line above
// it) carries a matching //kylix:allow suppression.
func (p *Pass) Reportf(pos token.Pos, detail, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Ann().Allowed(p.Analyzer.Name, detail, position) {
		return
	}
	p.report(Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Detail:  detail,
		Message: fmt.Sprintf(format, args...),
	})
}

// Ann returns the package's annotation set, parsing it on first use.
func (p *Pass) Ann() *Annotations {
	if p.ann == nil {
		p.ann = ParseAnnotations(p.Fset, p.Files)
	}
	return p.ann
}

// IsTestFile reports whether pos lies in a _test.go file. The hotpath,
// determinism and commcheck analyzers skip test files: those contracts
// bind shipped code, and tests legitimately read clocks, ignore
// teardown errors and build throwaway tags.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Local reports whether path belongs to the analyzed module.
func (p *Pass) Local(path string) bool {
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}

// Annotations is the parsed set of //kylix: markers in one package.
type Annotations struct {
	// PkgDeterministic is set when any file's package doc carries
	// //kylix:deterministic, extending the contract to every function.
	PkgDeterministic bool
	// FuncMarks maps a *ast.FuncDecl to its markers
	// ("hotpath", "coldpath", "deterministic", "owned").
	FuncMarks map[*ast.FuncDecl]map[string]bool
	// LockFields maps "TypeName.fieldName" to the lock class declared by
	// a //kylix:lock <class> field annotation. Lock classes are global:
	// lockorder builds its acquisition-order graph over them.
	LockFields map[string]string
	// Obsfree holds the classes declared `//kylix:lock <class> obsfree`:
	// their critical sections must not call observability hooks.
	Obsfree map[string]bool
	// allows maps "file:line" to the set of allow keys in force there.
	allows map[string]map[string]bool
}

// marker extracts the directive from a "//kylix:..." comment line,
// returning the empty string for ordinary comments.
func marker(c *ast.Comment) string {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, "//kylix:") {
		return ""
	}
	return strings.TrimSpace(strings.TrimPrefix(text, "//kylix:"))
}

// markerName is the directive's first token: "//kylix:owned — why"
// names the directive "owned", keeping inline justifications legal on
// every marker form.
func markerName(c *ast.Comment) string {
	fields := strings.Fields(marker(c))
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// ParseAnnotations scans the files for //kylix: directives.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	ann := &Annotations{
		FuncMarks:  map[*ast.FuncDecl]map[string]bool{},
		LockFields: map[string]string{},
		Obsfree:    map[string]bool{},
		allows:     map[string]map[string]bool{},
	}
	addAllow := func(c *ast.Comment, directive string) {
		keys := strings.Fields(strings.TrimPrefix(directive, "allow"))
		pos := fset.Position(c.Pos())
		lineKey := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		set := ann.allows[lineKey]
		if set == nil {
			set = map[string]bool{}
			ann.allows[lineKey] = set
		}
		for _, k := range keys {
			if k == "--" { // rest is prose justification
				break
			}
			set[k] = true
		}
	}
	for _, f := range files {
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if markerName(c) == "deterministic" {
					ann.PkgDeterministic = true
				}
			}
		}
		// Every comment in the file can carry an allow suppression.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := marker(c); strings.HasPrefix(m, "allow ") || m == "allow" {
					addAllow(c, m)
				}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc == nil {
					continue
				}
				for _, c := range d.Doc.List {
					switch markerName(c) {
					case "hotpath", "coldpath", "deterministic", "owned":
						set := ann.FuncMarks[d]
						if set == nil {
							set = map[string]bool{}
							ann.FuncMarks[d] = set
						}
						set[markerName(c)] = true
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						class, obsfree := fieldLockClass(field)
						if class == "" {
							continue
						}
						for _, name := range field.Names {
							ann.LockFields[ts.Name.Name+"."+name.Name] = class
						}
						if obsfree {
							ann.Obsfree[class] = true
						}
					}
				}
			}
		}
	}
	return ann
}

// fieldLockClass extracts the class name from a //kylix:lock <class>
// field annotation, or "" when the field carries none, and whether the
// class is declared obsfree (`//kylix:lock <class> obsfree`).
func fieldLockClass(field *ast.Field) (class string, obsfree bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if markerName(c) != "lock" {
				continue
			}
			fields := strings.Fields(marker(c))
			if len(fields) >= 2 {
				return fields[1], len(fields) >= 3 && fields[2] == "obsfree"
			}
		}
	}
	return "", false
}

// Allowed reports whether a diagnostic of the given check and detail at
// the position is suppressed by a //kylix:allow comment on the same
// line or the line directly above.
func (a *Annotations) Allowed(check, detail string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		set := a.allows[fmt.Sprintf("%s:%d", pos.Filename, line)]
		if set == nil {
			continue
		}
		if set[check] || (detail != "" && set[check+":"+detail]) {
			return true
		}
	}
	return false
}

// FuncMarked reports whether the declaration carries the marker, or —
// for "deterministic" — whether the whole package does.
func (a *Annotations) FuncMarked(d *ast.FuncDecl, mark string) bool {
	if mark == "deterministic" && a.PkgDeterministic {
		return true
	}
	return a.FuncMarks[d][mark]
}

// PackageFacts is the serializable per-package summary exchanged
// between analysis units through go vet's vetx files. hotpathalloc uses
// it to walk call graphs across package boundaries.
type PackageFacts struct {
	// Funcs maps a function's package-local ID (FuncID) to its summary.
	Funcs map[string]FuncFacts
	// LockNames maps "TypeName.fieldName" to the //kylix:lock class
	// declared in this package, so downstream packages can classify
	// locks on imported types.
	LockNames map[string]string
	// LockEdges lists the lock-order edges contributed by this package's
	// own bodies (imported edges are re-derived from the import graph,
	// not re-exported).
	LockEdges []LockEdge
}

// LockEdge records one observed acquisition order: To was acquired
// while From was held.
type LockEdge struct {
	// From and To are //kylix:lock class names.
	From, To string
	// Pos is the "file:line:col" acquisition site of To (basename only,
	// stable across machines).
	Pos string
}

// FuncFacts summarizes one function for cross-package reasoning.
type FuncFacts struct {
	// Hotpath and Coldpath mirror the function's annotations. Coldpath
	// cuts the hotpath call-graph walk: the function is a documented
	// one-time/cold route (e.g. arena construction) whose allocations
	// are deliberate.
	Hotpath  bool
	Coldpath bool
	// Allocs lists the allocating constructs found in the body, hot
	// regions only (error-return blocks and suppressed lines excluded).
	Allocs []AllocSite
	// Calls lists statically resolved project-local callees as
	// "pkgpath\x00funcID", hot regions only.
	Calls []string
	// Joins reports that the body carries a goroutine join/cancel
	// signal (WaitGroup.Done, a select over a quit channel, or a
	// <-ctx.Done() receive), so goleak can accept `go pkg.Fn()` spawns
	// of this function from other packages.
	Joins bool
	// LockAcquires lists the //kylix:lock classes this function may
	// acquire, directly or through project-local callees (transitive).
	LockAcquires []string
}

// AllocSite is one allocating construct inside a function.
type AllocSite struct {
	// Pos is the "file:line:col" location (basename only, for stable
	// cross-package messages).
	Pos string
	// What describes the construct ("fmt call", "map literal", ...).
	What string
}

// FuncID returns the package-local identifier facts are keyed by:
// "Name" for package functions, "Recv.Name" for methods (pointer
// receivers stripped).
func FuncID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// DeclID returns FuncID for a syntax declaration.
func DeclID(info *types.Info, d *ast.FuncDecl) string {
	if fn, ok := info.Defs[d.Name].(*types.Func); ok && fn != nil {
		return FuncID(fn)
	}
	return d.Name.Name
}

// All returns the analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{HotPathAlloc, Determinism, CommCheck, GoLeak, LockOrder}
}
