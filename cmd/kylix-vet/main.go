// Command kylix-vet runs the project's invariant analyzers (see
// internal/analysis): hotpathalloc, lockobs, determinism, commcheck,
// goleak and lockorder.
//
// Two modes:
//
//	kylix-vet [-checks=a,b] [-json] [packages...]   # standalone, defaults to ./...
//	go vet -vettool=$(command -v kylix-vet) ./...   # as a vet backend
//
// Standalone mode loads the whole dependency closure itself (via
// `go list -export -deps -json`) and analyzes every project package in
// dependency order, so cross-package hotpath call-graph facts work
// without a driver. In vettool mode cmd/go invokes the binary once per
// package with a *.cfg file; facts travel through go vet's vetx files,
// and results participate in the build cache keyed by this binary's
// content hash (the -V=full handshake).
//
// With -json, diagnostics are machine-readable: standalone mode prints
// a JSON array of {file, line, col, analyzer, detail, message} objects
// to stdout; vettool mode prints the unitchecker-style
// {"<package>": {"<analyzer>": [{posn, message}]}} object go vet's own
// -json flag expects.
//
// Exit codes. Standalone: 0 clean, 1 findings or load/analysis error,
// 2 usage error. Vettool backend: 0 clean, 1 internal error, 2
// findings (the unitchecker convention cmd/go reports as "vet
// failed") — except with -json, where findings exit 0 and the JSON
// stream is the signal, matching `go vet -json`.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kylix/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The -V=full handshake must work regardless of other flags: cmd/go
	// probes it first and hashes the reply into the build cache key.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("kylix-vet version %s\n", selfHash())
			return 0
		}
		if a == "-flags" || a == "--flags" {
			// cmd/go asks which analyzer flags the tool supports; the
			// suite is configured by annotations, not flags.
			fmt.Println("[]")
			return 0
		}
	}

	fs := flag.NewFlagSet("kylix-vet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated analyzer subset (default: all)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 2
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnit(rest[0], analyzers, *jsonOut)
	}
	return runStandalone(rest, analyzers, *jsonOut)
}

// jsonDiag is the standalone -json record: one finding, fully located
// and attributed, so CI annotators need no parsing beyond JSON.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Detail   string `json:"detail,omitempty"`
	Message  string `json:"message"`
}

// unitPosnDiag is the vettool -json record, matching the shape
// x/tools' unitchecker emits and `go vet -json` aggregates.
type unitPosnDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

func toJSONDiags(diags []analysis.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Check,
			Detail:   d.Detail,
			Message:  d.Message,
		})
	}
	return out
}

// runUnit is the go vet backend path: analyze one package unit, print
// findings to stderr, exit 2 when there are any (the unitchecker
// convention cmd/go treats as "vet failed"). With jsonOut the findings
// go to stdout as the unitchecker JSON object and the exit is 0 —
// cmd/go's -json drivers treat the stream, not the status, as the
// result.
func runUnit(cfgFile string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	diags, err := analysis.RunUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 1
	}
	if jsonOut {
		byCheck := map[string][]unitPosnDiag{}
		for _, d := range diags {
			byCheck[d.Check] = append(byCheck[d.Check], unitPosnDiag{
				Posn:    fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(map[string]map[string][]unitPosnDiag{unitID(cfgFile): byCheck}); err != nil {
			fmt.Fprintln(os.Stderr, "kylix-vet:", err)
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// unitID recovers the package identifier from the vet cfg file for the
// JSON output's top-level key.
func unitID(cfgFile string) string {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return "unknown"
	}
	var cfg analysis.UnitConfig
	if err := json.Unmarshal(data, &cfg); err != nil || cfg.ID == "" {
		return "unknown"
	}
	return cfg.ID
}

// runStandalone loads the patterns (default ./...) and analyzes every
// matched project package. Findings exit 1 in both output formats; the
// stderr count stays off the -json stdout stream so pipelines can
// consume pure JSON.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 1
	}
	ld, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 1
	}
	diags, err := ld.Run(analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(toJSONDiags(diags)); err != nil {
			fmt.Fprintln(os.Stderr, "kylix-vet:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "kylix-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selfHash fingerprints the running binary so go vet's build cache
// invalidates when the tool changes.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
