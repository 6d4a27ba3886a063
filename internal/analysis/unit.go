package analysis

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// UnitConfig mirrors the JSON configuration cmd/go writes for a vet
// tool invocation (`go vet -vettool=...` runs the tool once per
// package with a *.cfg argument). The field set matches cmd/go's
// internal vetConfig — the same contract x/tools' unitchecker consumes.
type UnitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the analyzers for one `go vet` unit: it typechecks
// the unit's sources against the compiler export data cmd/go supplies,
// reads upstream facts from PackageVetx, writes this unit's facts to
// VetxOutput, and returns diagnostics (empty when VetxOnly). Non-module
// units (the standard library closure go vet also visits) are skipped
// cheaply — their facts are empty and nothing in them is annotated.
func RunUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg UnitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	facts := &PackageFacts{}
	// Always write the facts file, even empty: cmd/go only forwards
	// vetx files that exist, and downstream units expect one per dep.
	defer func() {
		if cfg.VetxOutput != "" {
			writeFacts(cfg.VetxOutput, facts)
		}
	}()

	if cfg.ModulePath == "" || !isUnder(cfg.ImportPath, cfg.ModulePath) {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: mappedImporter{imp, cfg.ImportMap}}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := newInfo()
	pkgPath := cleanUnitPath(cfg.ImportPath)
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	importFacts := loadUpstreamFacts(cfg)
	var diags []Diagnostic
	var ann *Annotations
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
			ModulePath: cfg.ModulePath,
			Facts:      facts,
			ImportFacts: func(path string) *PackageFacts {
				return importFacts[cleanUnitPath(path)]
			},
			ann:    ann,
			report: func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, cfg.ImportPath, err)
		}
		ann = pass.ann
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	return diags, nil
}

// newInfo allocates the full types.Info record set the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// mappedImporter applies the unit's ImportMap (source import path ->
// canonical compiled path) before the export-data lookup.
type mappedImporter struct {
	base      types.Importer
	importMap map[string]string
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.base.Import(path)
}

// loadUpstreamFacts reads the gob fact files of every dependency cmd/go
// forwarded, keyed by cleaned import path.
func loadUpstreamFacts(cfg UnitConfig) map[string]*PackageFacts {
	out := map[string]*PackageFacts{}
	for path, file := range cfg.PackageVetx {
		pf := readFacts(file)
		if pf != nil {
			out[cleanUnitPath(path)] = pf
		}
	}
	return out
}

// cleanUnitPath strips the test-variant suffix cmd/go appends
// ("kylix/internal/comm [kylix/internal/comm.test]" -> the plain path),
// so fact lookups and package-identity checks see stable paths.
func cleanUnitPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// isUnder reports whether path is the module path or below it.
func isUnder(path, module string) bool {
	path = cleanUnitPath(path)
	// External test packages are named <pkg>_test; they live in the
	// module too.
	return path == module || strings.HasPrefix(path, module+"/")
}

// writeFacts serializes the package facts; failures are deliberately
// non-fatal (the next build simply recomputes).
func writeFacts(file string, facts *PackageFacts) {
	f, err := os.Create(file)
	if err != nil {
		return
	}
	defer f.Close()
	_ = gob.NewEncoder(f).Encode(facts)
}

// readFacts deserializes one dependency's facts, nil on any error.
func readFacts(file string) *PackageFacts {
	f, err := os.Open(file)
	if err != nil {
		return nil
	}
	defer f.Close()
	var facts PackageFacts
	if err := gob.NewDecoder(f).Decode(&facts); err != nil {
		return nil
	}
	return &facts
}
