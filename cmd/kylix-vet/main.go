// Command kylix-vet runs the project's five invariant analyzers (see
// internal/analysis): hotpathalloc, determinism, commcheck, goleak and
// lockorder. It has one mode, as a go vet backend:
//
//	go vet -vettool=$(command -v kylix-vet) ./...
//
// cmd/go invokes the binary once per package unit with a *.cfg file,
// test files included; facts travel through go vet's vetx files, and
// results participate in the build cache keyed by this binary's content
// hash (the -V=full handshake). Run without a .cfg argument it says so
// and exits 2.
//
// Exit codes: 0 clean, 1 internal error, 2 findings (the unitchecker
// convention cmd/go reports as "vet failed") or usage error.
package main

import (
	"crypto/sha256"
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
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "kylix-vet: run via `go vet -vettool=$(command -v kylix-vet) ./...`")
		return 2
	}
	diags, err := analysis.RunUnit(args[0], analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kylix-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
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
