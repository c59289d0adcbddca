package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Exhaustive is the enum-coverage analyzer. The wire frame-type constant
// set (and every other typed iota block in the corpus) gains members as
// the protocol grows; a switch that silently
// drops an unhandled constant turns a new frame type into a hang or a
// lost result instead of a diagnosable error. The analyzer is
// corpus-scoped because the constants and the switches live in
// different packages (wire.Type is matched in shim and core).
//
// Enum collection: every const block whose members share a declared
// in-package type forms an enum set, keyed "pkgdir.Type". Blocks using
// `1 << iota` are bitmasks, not enums, and are excluded — bitmask
// switches legitimately match combinations.
//
// A value switch is an enum switch when every case expression resolves
// to a member of one collected enum (unqualified idents resolve in the
// file's own package, `wire.THello` through the import table). An enum
// switch must either list every member or carry a default that fails
// loudly: panics, calls something log-like, or returns a non-nil value.
// An empty default, a bare return, or statements that just clean up and
// fall through are silent — exactly the "swallow the frame" bug class.
//
// Type switches are not checked: coverage of an interface's dynamic
// types needs go/types, and no data-plane package has one.
type Exhaustive struct{}

// Name implements Analyzer.
func (Exhaustive) Name() string { return "exhaustive" }

// Doc implements Analyzer.
func (Exhaustive) Doc() string {
	return "switches over wire/scheduler constant sets must cover every member or fail loudly"
}

// enumSet is one typed constant set.
type enumSet struct {
	key     string // "wire.Type"
	members []string
	member  map[string]bool
	bitmask bool
}

// CheckCorpus implements CorpusAnalyzer.
func (Exhaustive) CheckCorpus(files []*File, report func(pos token.Pos, msg string)) {
	enums := collectEnums(files)

	// byMember maps "pkgdir.Member" to the enums declaring that member.
	byMember := make(map[string][]*enumSet)
	for _, key := range sortedEnumKeys(enums) {
		e := enums[key]
		if e.bitmask {
			continue
		}
		pkg := key[:strings.Index(key, ".")]
		for _, m := range e.members {
			byMember[pkg+"."+m] = append(byMember[pkg+"."+m], e)
		}
	}

	for _, f := range files {
		if f.Test {
			continue
		}
		checkSwitches(f, byMember, report)
	}
}

// collectEnums gathers every typed const block in non-test files.
func collectEnums(files []*File) map[string]*enumSet {
	enums := make(map[string]*enumSet)
	for _, f := range files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			carried := "" // type carried by implicit-repeat specs
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				typ := ""
				switch {
				case vs.Type != nil:
					if id, ok := vs.Type.(*ast.Ident); ok {
						typ = id.Name
					}
					carried = typ
				case len(vs.Values) == 0:
					// Implicit repetition of the previous spec: inherits
					// both type and expression.
					typ = carried
				default:
					// New untyped expression: breaks the enum run.
					carried = ""
				}
				if typ == "" {
					continue
				}
				key := f.PkgDir + "." + typ
				e := enums[key]
				if e == nil {
					e = &enumSet{key: key, member: make(map[string]bool)}
					enums[key] = e
				}
				for _, v := range vs.Values {
					if usesIotaShift(v) {
						e.bitmask = true
					}
				}
				for _, name := range vs.Names {
					if name.Name == "_" || e.member[name.Name] {
						continue
					}
					e.member[name.Name] = true
					e.members = append(e.members, name.Name)
				}
			}
		}
	}
	return enums
}

// sortedEnumKeys returns the enum keys in stable order.
func sortedEnumKeys(enums map[string]*enumSet) []string {
	keys := make([]string, 0, len(enums))
	for key := range enums {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// usesIotaShift detects `1 << iota`-style bitmask expressions.
func usesIotaShift(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.SHL || be.Op == token.SHR) {
			ast.Inspect(be, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == "iota" {
					found = true
				}
				return true
			})
		}
		return !found
	})
	return found
}

// checkSwitches inspects each tagged switch statement in the file.
func checkSwitches(f *File, byMember map[string][]*enumSet, report func(pos token.Pos, msg string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
			checkEnumSwitch(f, sw, byMember, report)
		}
		return true
	})
}

// checkEnumSwitch matches the switch's cases against the enum table and
// reports missing members or a silent default.
func checkEnumSwitch(f *File, sw *ast.SwitchStmt, byMember map[string][]*enumSet, report func(pos token.Pos, msg string)) {
	var enum *enumSet
	covered := make(map[string]bool)
	var defaultClause *ast.CaseClause

	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, expr := range cc.List {
			name, pkg := caseMemberRef(f, expr)
			if name == "" {
				return // non-constant case: not an enum switch
			}
			candidates := byMember[pkg+"."+name]
			if len(candidates) != 1 {
				return // unknown or ambiguous member
			}
			if enum == nil {
				enum = candidates[0]
			} else if enum != candidates[0] {
				return // cases from two different sets: skip
			}
			covered[name] = true
		}
	}
	if enum == nil {
		return
	}

	var missing []string
	for _, m := range enum.members {
		if !covered[m] {
			missing = append(missing, m)
		}
	}
	if defaultClause == nil {
		if len(missing) > 0 {
			report(sw.Pos(), fmt.Sprintf(
				"switch on %s is not exhaustive: missing %s (add the cases or a default that fails loudly)",
				enum.key, strings.Join(missing, ", ")))
		}
		return
	}
	if len(missing) > 0 && !loudBody(defaultClause.Body) {
		report(defaultClause.Pos(), fmt.Sprintf(
			"silent default in switch over %s drops %s: log, return an error, or panic",
			enum.key, strings.Join(missing, ", ")))
	}
}

// caseMemberRef resolves a case expression to (member, pkgdir):
// `THello` in package wire -> ("THello", "wire"); `wire.THello`
// elsewhere -> ("THello", "wire"). Returns "" for anything else.
func caseMemberRef(f *File, expr ast.Expr) (string, string) {
	switch v := expr.(type) {
	case *ast.Ident:
		if v.Name == "nil" || v.Name == "true" || v.Name == "false" {
			return "", ""
		}
		return v.Name, f.PkgDir
	case *ast.SelectorExpr:
		pkg, ok := v.X.(*ast.Ident)
		if !ok {
			return "", ""
		}
		if dir := importedDir(f.AST, pkg.Name); dir != "" {
			return v.Sel.Name, dir
		}
	}
	return "", ""
}

// importedDir maps a qualifier identifier to the last element of the
// import path it names ("" when no import matches).
func importedDir(f *ast.File, qual string) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		last := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			last = path[i+1:]
		}
		name := last
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == qual {
			return last
		}
	}
	return ""
}

// loudBody reports whether a default clause fails loudly: it panics,
// calls something log-like, or returns a non-nil value.
func loudBody(body []ast.Stmt) bool {
	loud := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				switch fun := v.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "panic" || logLike(fun.Name) {
						loud = true
					}
				case *ast.SelectorExpr:
					if logLike(fun.Sel.Name) {
						loud = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range v.Results {
					if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
						continue
					}
					loud = true
				}
			}
			return !loud
		})
		if loud {
			return true
		}
	}
	return false
}

// logLike matches names that visibly record the unhandled value
// (wire.Unexpected counts and logs the frame a dispatch switch drops).
func logLike(name string) bool {
	l := strings.ToLower(name)
	for _, frag := range []string{"log", "fatal", "panic", "error", "warn", "print", "unexpected"} {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}
