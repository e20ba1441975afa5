// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// used by the llbplint suite. The container this repository builds in has
// no module proxy access, so the real x/tools package cannot be fetched;
// this package mirrors its API shape closely enough that the analyzers in
// internal/lint could be ported to the upstream framework by changing
// imports only.
//
// Beyond the x/tools core, this package implements the repository's
// suppression directive:
//
//	//llbplint:allow <analyzer>[,<analyzer>...] -- <justification>
//
// An allow comment suppresses matching diagnostics reported on the
// comment's own line or on the line directly below it (so it works both
// as a trailing comment and as a standalone comment above the offending
// statement). The justification after " -- " is mandatory: a directive
// without one suppresses nothing and is itself reported as a diagnostic,
// keeping every allowlisted finding explained in the code.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one static check. Exactly one of Run and RunProgram is
// set: Run inspects one package at a time, RunProgram sees every loaded
// package at once (the interprocedural analyzers need whole-program
// object identity to walk call graphs across package boundaries).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	// It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes a per-package check. Diagnostics are delivered
	// through pass.Report; the error return is for operational failures
	// only (it aborts the run, it does not mean "findings exist").
	Run func(*Pass) error
	// RunProgram executes a whole-program check over every package of a
	// ProgramPass.
	RunProgram func(*ProgramPass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The runner fills Category with
	// the analyzer name if left empty.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A ProgramPkg is one package of a whole-program pass.
type ProgramPkg struct {
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// A ProgramPass presents every loaded package to a program analyzer.
// The packages share one FileSet and one type-object universe: a
// function imported by package A from package B is the same *types.Func
// as B's own definition.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*ProgramPkg
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position. Interprocedural
// findings carry the evidence chain in Path (source first, sink last).
type Diagnostic struct {
	Pos token.Pos
	// Category is the reporting analyzer's name ("directive" for
	// malformed suppression comments).
	Category string
	Message  string
	// Path, when non-empty, is the interprocedural step chain behind
	// the finding: for detflow the source→…→sink flow, for fencecheck
	// the worker-root→…→write chain, for lockorder the acquisition
	// cycle.
	Path []PathStep
}

// A PathStep is one hop of a diagnostic's evidence chain.
type PathStep struct {
	Pos  token.Pos
	Note string
}

// allowDirective is the parsed form of one //llbplint:allow comment.
type allowDirective struct {
	pos       token.Pos
	line      int
	file      string
	analyzers map[string]bool
	justified bool
	// used records that the directive suppressed at least one diagnostic
	// in this run — the input of the driver's dead-allow check.
	used bool
}

const directivePrefix = "llbplint:allow"

// DirectiveCategory is the category used for malformed-directive
// diagnostics, and the name under which fixtures can "want" them.
const DirectiveCategory = "directive"

// Suppressions indexes a package's //llbplint:allow directives.
type Suppressions struct {
	directives []allowDirective
}

// CollectSuppressions scans the files' comments for allow directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				d := allowDirective{
					pos:       c.Pos(),
					line:      fset.Position(c.Pos()).Line,
					file:      fset.Position(c.Pos()).Filename,
					analyzers: map[string]bool{},
				}
				names := rest
				if i := strings.Index(rest, "--"); i >= 0 {
					names = strings.TrimSpace(rest[:i])
					d.justified = strings.TrimSpace(rest[i+2:]) != ""
				}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						d.analyzers[n] = true
					}
				}
				s.directives = append(s.directives, d)
			}
		}
	}
	return s
}

// Allows reports whether a diagnostic from the named analyzer at pos is
// suppressed by a justified directive on the same or the preceding line,
// marking the matching directive as used.
func (s *Suppressions) Allows(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	for i := range s.directives {
		d := &s.directives[i]
		if !d.justified || d.file != p.Filename {
			continue
		}
		if (d.line == p.Line || d.line == p.Line-1) && d.analyzers[name] {
			d.used = true
			return true
		}
	}
	return false
}

// Stale returns one diagnostic per justified directive that suppressed
// nothing during the run — a dead allow whose underlying finding no
// longer fires (or that names no analyzer of the suite), so the
// justification is rot. Call it after every analyzer has run.
func (s *Suppressions) Stale() []Diagnostic {
	var out []Diagnostic
	for i := range s.directives {
		d := &s.directives[i]
		if !d.justified || d.used {
			continue
		}
		names := make([]string, 0, len(d.analyzers))
		for name := range d.analyzers {
			names = append(names, name)
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pos:      d.pos,
			Category: DirectiveCategory,
			Message: fmt.Sprintf("stale allow directive: no %s diagnostic fires here anymore; delete it",
				strings.Join(names, ",")),
		})
	}
	return out
}

// Problems returns one diagnostic per malformed (unjustified) directive.
// Call it once per package, not once per analyzer, to avoid duplicates.
func (s *Suppressions) Problems() []Diagnostic {
	var out []Diagnostic
	for _, d := range s.directives {
		if d.justified {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      d.pos,
			Category: DirectiveCategory,
			Message:  fmt.Sprintf("allow directive missing justification; use //%s <analyzers> -- <reason>", directivePrefix),
		})
	}
	return out
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// Validate checks the analyzer's metadata.
func (a *Analyzer) Validate() error {
	if !nameRE.MatchString(a.Name) {
		return fmt.Errorf("analysis: invalid analyzer name %q", a.Name)
	}
	if (a.Run == nil) == (a.RunProgram == nil) {
		return fmt.Errorf("analysis: analyzer %s must set exactly one of Run and RunProgram", a.Name)
	}
	return nil
}

// Run executes one analyzer over a type-checked package, applying the
// package's suppression directives, and returns the surviving
// diagnostics sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sup *Suppressions) ([]Diagnostic, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if sup == nil {
		sup = CollectSuppressions(fset, files)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			if sup.Allows(fset, d.Category, d.Pos) {
				return
			}
			diags = append(diags, d)
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
	}
	SortDiagnostics(fset, diags)
	return diags, nil
}

// RunProgram executes one whole-program analyzer over every package,
// applying the shared suppression index, and returns the surviving
// diagnostics sorted by position.
func RunProgram(a *Analyzer, fset *token.FileSet, pkgs []*ProgramPkg, sup *Suppressions) ([]Diagnostic, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if a.RunProgram == nil {
		return nil, fmt.Errorf("analysis: analyzer %s is not a program analyzer", a.Name)
	}
	if sup == nil {
		var files []*ast.File
		for _, p := range pkgs {
			files = append(files, p.Files...)
		}
		sup = CollectSuppressions(fset, files)
	}
	var diags []Diagnostic
	pass := &ProgramPass{
		Analyzer: a,
		Fset:     fset,
		Packages: pkgs,
		Report: func(d Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			if sup.Allows(fset, d.Category, d.Pos) {
				return
			}
			diags = append(diags, d)
		},
	}
	if err := a.RunProgram(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
	}
	SortDiagnostics(fset, diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, then message.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
