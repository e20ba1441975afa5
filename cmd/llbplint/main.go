// Command llbplint runs the repository's custom static-analysis suite
// (internal/lint) over Go packages and fails on any diagnostic. It is a
// tier-1 CI gate alongside go vet.
//
// Usage:
//
//	llbplint [-C dir] [-json] [-list] [-fix | -diff] [packages]
//
// Packages default to ./... . Every analyzer runs; each decides from a
// package's import path whether the package is in its scope. A finding
// that is intentional is suppressed in the source, and only there, with
// a justified directive:
//
//	//llbplint:allow <analyzer> -- <reason>
//
// A justified directive that no longer suppresses anything is itself a
// finding (dead-allow detection): stale suppressions rot into false
// documentation, so the driver fails until they are deleted.
//
// -fix applies the two mechanical autofixes in place (sorted-key map
// range rewrite, missing-justification stub); -diff prints the same
// patch without writing.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"strings"

	"llbp/internal/lint"
	"llbp/internal/lint/analysis"
	"llbp/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonStep is one hop of a finding's evidence chain in -json output.
type jsonStep struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Note string `json:"note"`
}

// jsonDiagnostic is the -json output record for one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Path is the interprocedural evidence chain (source→sink for
	// detflow, root→write for fencecheck, the acquisition chain for
	// lockorder).
	Path []jsonStep `json:"path,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llbplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("C", ".", "change to `dir` (the module root) before loading packages")
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON array")
		listAll = fs.Bool("list", false, "list the analyzers and exit")
		doFix   = fs.Bool("fix", false, "apply the mechanical autofixes in place")
		doDiff  = fs.Bool("diff", false, "print the autofix patch without applying it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listAll {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absDir, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "llbplint:", err)
		return 2
	}

	pkgs, err := load.Targets(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "llbplint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		return 0
	}
	fset := pkgs[0].Fset // load.Targets checks every package into one FileSet

	// One suppression index across the whole load, so program analyzers
	// and the dead-allow check see every directive.
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	sup := analysis.CollectSuppressions(fset, files)

	var diags []analysis.Diagnostic
	diags = append(diags, sup.Problems()...)
	for _, pkg := range pkgs {
		for _, a := range lint.All() {
			if a.Run == nil {
				continue
			}
			ds, err := analysis.Run(a, fset, pkg.Files, pkg.Types, pkg.TypesInfo, sup)
			if err != nil {
				fmt.Fprintln(stderr, "llbplint:", err)
				return 2
			}
			diags = append(diags, ds...)
		}
	}
	progPkgs := make([]*analysis.ProgramPkg, len(pkgs))
	for i, pkg := range pkgs {
		progPkgs[i] = &analysis.ProgramPkg{
			Path:      pkg.ImportPath,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
	}
	for _, a := range lint.All() {
		if a.RunProgram == nil {
			continue
		}
		ds, err := analysis.RunProgram(a, fset, progPkgs, sup)
		if err != nil {
			fmt.Fprintln(stderr, "llbplint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	// Dead-allow detection runs after every analyzer has had the chance
	// to use each directive.
	diags = append(diags, sup.Stale()...)
	analysis.SortDiagnostics(fset, diags)

	all := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		jd := jsonDiagnostic{
			File:     relTo(absDir, pos.Filename),
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Category,
			Message:  d.Message,
		}
		for _, s := range d.Path {
			sp := fset.Position(s.Pos)
			jd.Path = append(jd.Path, jsonStep{File: relTo(absDir, sp.Filename), Line: sp.Line, Note: s.Note})
		}
		all = append(all, jd)
	}

	if *doFix || *doDiff {
		return runFixes(absDir, all, *doFix, stdout, stderr)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "llbplint:", err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
			for _, s := range d.Path {
				fmt.Fprintf(stdout, "\t%s:%d: %s\n", s.File, s.Line, s.Note)
			}
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "llbplint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// relTo renders path relative to the analysis root with forward
// slashes, so reported files read the same across machines and working
// directories.
func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}
