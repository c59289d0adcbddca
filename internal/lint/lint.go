// Package lint is netagg's repo-specific static analyzer framework. It
// enforces the two invariants the reproduction's correctness claims rest
// on: the agg-box data plane (core, wire, shim, cluster) must stay
// race-free and leak-free under churn, and the flow-level simulator
// (simnet, strategies, simexp, stats, figures, workload) must stay
// deterministic so the paper's FCT-percentile figures reproduce
// bit-for-bit across runs.
//
// The framework is pure go/ast + go/parser + go/token — no go/types, no
// golang.org/x/tools — so it parses and checks the whole tree in
// milliseconds and has no dependency on build state. Analyzers are
// syntactic and package-scoped; where type information would be needed
// (e.g. "is this expression a map?") they use conservative local
// heuristics documented on each analyzer.
//
// Findings can be suppressed at the site with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; it is the one suppression
// mechanism, and the one comment directive, parsed in this file.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string
	// File is the path as given to Parse (repo-relative in the driver).
	File    string
	Line    int
	Col     int
	Message string
}

// String formats a finding like a compiler diagnostic.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// File is one parsed source file presented to analyzers.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Path is the file path, as reported in findings.
	Path string
	// PkgDir is the last element of the directory holding the file
	// ("simnet", "core", ...). Analyzers scope themselves by it.
	PkgDir string
	// Test reports whether this is a _test.go file.
	Test bool
	// Src is the raw source, used to classify comments as standalone or
	// trailing.
	Src []byte

	// ignores maps line number -> ignore directives covering that line. A
	// standalone directive appears under two lines (its own and the next)
	// through the same pointer, so usage marks land on the one directive.
	ignores map[int][]*ignoreDirective
}

// ignoreDirective is one //lint:ignore comment, tracked so directives
// that suppress nothing can be reported instead of rotting in place.
type ignoreDirective struct {
	analyzer string
	pos      token.Position // the comment's own position
	used     bool
}

// Analyzer is one named check. Besides its name and doc line it has
// whichever of three hooks its analysis needs, and Run calls those it
// finds: Check sees one file, CheckPackage (PackageAnalyzer) one package's
// shared summary, CheckCorpus (CorpusAnalyzer) the whole parsed tree.
// Scoping — which packages a check applies to — is each hook's own job.
type Analyzer interface {
	// Name is the analyzer identifier used in findings and suppression
	// comments.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
}

// fileAnalyzer is the per-file hook.
type fileAnalyzer interface {
	Check(f *File, report func(pos token.Pos, msg string))
}

// PackageAnalyzer is the interprocedural hook: it reads the summary of a
// package's functions, field types, call graph, lock and blocking sites
// (pkggraph.go) that Run builds once and hands to every PackageAnalyzer.
type PackageAnalyzer interface {
	Analyzer
	// CheckPackage inspects one package. report may be called with
	// positions from any of its files.
	CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string))
}

// CorpusAnalyzer sees the whole parsed tree at once, for analyses that
// need cross-package facts (e.g. the wire frame-type constant set while
// checking a switch in shim).
type CorpusAnalyzer interface {
	Analyzer
	// CheckCorpus inspects every parsed file together. report may be
	// called with positions from any of the files.
	CheckCorpus(files []*File, report func(pos token.Pos, msg string))
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		DocRule{},
		LockDiscipline{},
		ErrcheckWire{},
		GoroutineHygiene{},
		LockOrder{},
		CtxFlow{},
		Exhaustive{},
	}
}

// Parse reads and parses one file for analysis. displayPath is the path
// recorded in findings (usually repo-relative).
func Parse(fset *token.FileSet, osPath, displayPath string) (*File, error) {
	src, err := os.ReadFile(osPath)
	if err != nil {
		return nil, err
	}
	return ParseSource(fset, displayPath, src)
}

// ParseSource parses in-memory source (used by tests with fixtures).
func ParseSource(fset *token.FileSet, displayPath string, src []byte) (*File, error) {
	astf, err := parser.ParseFile(fset, displayPath, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &File{
		Fset:   fset,
		AST:    astf,
		Path:   displayPath,
		PkgDir: filepath.Base(filepath.Dir(displayPath)),
		Test:   strings.HasSuffix(displayPath, "_test.go"),
		Src:    src,
	}
	f.indexLines()
	return f, nil
}

// directive splits a `//lint:<name> args...` comment into its name
// ("lint:ignore") and arguments; name is "" for any other comment.
func directive(c *ast.Comment) (name string, args []string) {
	text, ok := strings.CutPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !ok || !strings.HasPrefix(text, "lint:") {
		return "", nil
	}
	fields := strings.Fields(text)
	return fields[0], fields[1:]
}

// indexLines indexes the //lint:ignore directives by the lines they
// cover: a standalone comment (only whitespace before it on the line)
// covers its own line and the next code line, a trailing comment its own
// line.
func (f *File) indexLines() {
	f.ignores = make(map[int][]*ignoreDirective)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			name, args := directive(c)
			if name != "lint:ignore" {
				continue
			}
			pos := f.Fset.Position(c.Pos())
			lines := []int{pos.Line}
			if f.standalone(pos) {
				lines = append(lines, pos.Line+1)
			}
			if len(args) < 2 {
				// An ignore without a reason is itself ignored: the reason
				// is the audit trail.
				continue
			}
			d := &ignoreDirective{analyzer: args[0], pos: pos}
			for _, line := range lines {
				f.ignores[line] = append(f.ignores[line], d)
			}
		}
	}
}

// standalone reports whether only whitespace precedes the position on its
// line.
func (f *File) standalone(pos token.Position) bool {
	if f.Src == nil {
		return true
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(f.Src) {
		return true
	}
	return strings.TrimSpace(string(f.Src[start:pos.Offset])) == ""
}

// suppressed reports whether analyzer findings on the given line are
// ignored, marking every matching directive as used (a duplicated
// directive is "used" too — it is redundant, not dead).
func (f *File) suppressed(analyzer string, line int) bool {
	hit := false
	for _, d := range f.ignores[line] {
		if d.analyzer == analyzer || d.analyzer == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Run applies the analyzers to the files and returns surviving findings
// sorted by file, line, column, analyzer. Per-file hooks see one file at
// a time, PackageAnalyzers see each directory's summary — built once
// per Run, however many of them read it — and CorpusAnalyzers see
// everything at once. //lint:ignore suppressions are applied here.
func Run(files []*File, analyzers []Analyzer) []Finding {
	var out []Finding

	// byPath resolves a reported position back to the file it lives in,
	// so package/corpus analyzers get correct paths and suppression.
	byPath := make(map[string]*File, len(files))
	for _, f := range files {
		byPath[f.Path] = f
	}
	reporter := func(fset *token.FileSet, name string) func(pos token.Pos, msg string) {
		return func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			f := byPath[p.Filename]
			if f != nil && f.suppressed(name, p.Line) {
				return
			}
			out = append(out, Finding{
				Analyzer: name,
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Message:  msg,
			})
		}
	}

	pkgs := summarise(files)
	for _, a := range analyzers {
		if an, ok := a.(CorpusAnalyzer); ok && len(files) > 0 {
			an.CheckCorpus(files, reporter(files[0].Fset, a.Name()))
		}
		if an, ok := a.(PackageAnalyzer); ok {
			for _, p := range pkgs {
				an.CheckPackage(p, reporter(p.files[0].Fset, a.Name()))
			}
		}
		if an, ok := a.(fileAnalyzer); ok {
			for _, f := range files {
				an.Check(f, reporter(f.Fset, a.Name()))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// summarise groups the files by directory, in first-seen order, and
// builds each package's summary — the one buildPackage call per package
// per Run. Directories with only test files have none.
func summarise(files []*File) []*pkgSummary {
	var dirs []string
	groups := make(map[string][]*File)
	for _, f := range files {
		dir := filepath.Dir(f.Path)
		if _, ok := groups[dir]; !ok {
			dirs = append(dirs, dir)
		}
		groups[dir] = append(groups[dir], f)
	}
	var pkgs []*pkgSummary
	for _, dir := range dirs {
		if p := buildPackage(groups[dir]); p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// UnusedIgnores reports //lint:ignore directives in the files that
// suppressed nothing during a preceding Run over the same File values
// (usage marks live on the parsed files, so the files passed here must
// be the ones Run saw). Only directives naming one of the analyzers
// that ran — or "all" — are reported: an ignore for an analyzer outside
// this run's suite may be load-bearing in a fuller run. A stale ignore
// is a defect, not a style nit: it claims an audited violation that no
// longer exists, so the recorded reason misdocuments the line.
func UnusedIgnores(files []*File, analyzers []Analyzer) []Finding {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	var out []Finding
	for _, f := range files {
		seen := make(map[*ignoreDirective]bool)
		for _, ds := range f.ignores {
			for _, d := range ds {
				if seen[d] || d.used || (d.analyzer != "all" && !ran[d.analyzer]) {
					continue
				}
				seen[d] = true
				out = append(out, Finding{
					Analyzer: "unusedignore",
					File:     f.Path,
					Line:     d.pos.Line,
					Col:      d.pos.Column,
					Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing: the finding it audited is gone, so the directive (and its reason) should go too", d.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return out
}

// importName returns the local name under which the file imports the
// given path ("" if not imported). A dot or blank import returns "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		// Default name: last path element.
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// exprString renders a (small) expression for messages and lock naming.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	default:
		return "expr"
	}
}

// inScope reports whether the file's package directory is in the set.
func inScope(f *File, dirs ...string) bool {
	for _, d := range dirs {
		if f.PkgDir == d {
			return true
		}
	}
	return false
}
