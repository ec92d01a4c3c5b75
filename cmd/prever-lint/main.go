// Command prever-lint runs the project's static-analysis suite
// (internal/lint): stdlib-only analyzers tuned to this codebase's failure
// modes — mutexes held across channel operations, math/rand in crypto
// code, short-circuiting secret comparisons, defers inside loops,
// discarded errors from mutation entry points, sends racing journal
// fsyncs, lock-order cycles, leaked timers, mixed atomic/plain field
// access, channel close races, and internal declarations no non-test code
// uses.
//
// Usage:
//
//	prever-lint [-json|-github] [packages]
//
// Packages are directory patterns relative to the module root: "./..."
// (the default) analyzes every non-test package; a plain directory
// ("./internal/zk") analyzes one. Findings print one per line as
//
//	file:line: [analyzer] message
//
// -json emits the findings as a JSON array ({file, line, analyzer,
// message}) for tooling; -github emits GitHub Actions workflow commands
// (::error file=...,line=...::...) so findings annotate the offending
// lines in pull-request diffs. In every mode the exit status is 1 if
// anything was reported. Reviewed exceptions are silenced in place with
// "//lint:ignore <analyzer> <reason>" on the offending line or the line
// above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prever/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	githubOut := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: prever-lint [-json|-github] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *githubOut {
		fatal(fmt.Errorf("-json and -github are mutually exclusive"))
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fatal(err)
	}
	findings := lint.Run(pkgs, lint.All())
	for i := range findings {
		if rel, err := filepath.Rel(cwd, findings[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			findings[i].Pos.Filename = rel
		}
	}
	switch {
	case *jsonOut:
		printJSON(findings)
	case *githubOut:
		printGitHub(findings)
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "prever-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// jsonFinding is the stable machine-readable shape; file paths are
// slash-separated and relative to the working directory.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(findings []lint.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     filepath.ToSlash(f.Pos.Filename),
			Line:     f.Pos.Line,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// printGitHub emits workflow commands that GitHub Actions turns into
// per-line annotations on the pull-request diff.
func printGitHub(findings []lint.Finding) {
	for _, f := range findings {
		fmt.Printf("::error file=%s,line=%d,title=prever-lint %s::%s\n",
			filepath.ToSlash(f.Pos.Filename), f.Pos.Line, f.Analyzer, escapeGitHub(f.Message))
	}
}

// escapeGitHub encodes the characters the workflow-command grammar
// reserves in the message position.
func escapeGitHub(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prever-lint:", err)
	os.Exit(1)
}
