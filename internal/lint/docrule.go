package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// DocRule enforces godoc coverage on the repository's API surface: in
// the packages that other layers program against (transport, cluster,
// core, obs) every exported top-level identifier, exported struct
// field, and exported interface method must carry a doc comment. The
// packages implement the paper's mechanisms, so their doc comments are
// where §-references live (e.g. "§3.2.1 Task scheduler") — an
// undocumented exported name is a broken link in that mapping.
//
// Accepted forms: a doc comment on the declaration itself, or — for
// grouped var/const declarations — on the enclosing group (the group
// doc then covers every name in the group). Trailing line comments on
// fields count too.
type DocRule struct{}

// docScope is the set of package directories DocRule applies to.
var docScope = []string{"transport", "cluster", "core", "obs", "treeplan"}

// Name implements Analyzer.
func (DocRule) Name() string { return "docrule" }

// Doc implements Analyzer.
func (DocRule) Doc() string {
	return "exported identifiers in transport, cluster, core, obs, treeplan must have doc comments"
}

// Check is the per-file hook.
func (DocRule) Check(f *File, report func(pos token.Pos, msg string)) {
	if f.Test || !inScope(f, docScope...) {
		return
	}
	for _, decl := range f.AST.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Name.Pos(), fmt.Sprintf("exported %s %s has no doc comment", funcKind(d), d.Name.Name))
			}
		case *ast.GenDecl:
			checkGenDecl(d, report)
		}
	}
}

// funcKind distinguishes methods from functions in messages.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// checkGenDecl handles type/var/const declarations, accepting a group
// doc comment as covering every spec in the group.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil {
				report(s.Name.Pos(), fmt.Sprintf("exported type %s has no doc comment", s.Name.Name))
			}
			if s.Name.IsExported() {
				checkTypeBody(s.Name.Name, s.Type, report)
			}
		case *ast.ValueSpec:
			if groupDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), fmt.Sprintf("exported %s %s has no doc comment", kindWord(d.Tok), name.Name))
				}
			}
		}
	}
}

// kindWord maps the declaration token to the word used in messages.
func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// checkTypeBody reports undocumented exported struct fields and
// interface methods of an exported type.
func checkTypeBody(typeName string, expr ast.Expr, report func(token.Pos, string)) {
	switch t := expr.(type) {
	case *ast.StructType:
		if t.Fields == nil {
			return
		}
		for _, field := range t.Fields.List {
			if field.Doc != nil || field.Comment != nil {
				continue
			}
			for _, name := range field.Names {
				if name.IsExported() {
					report(name.Pos(), fmt.Sprintf("exported field %s.%s has no doc comment", typeName, name.Name))
				}
			}
		}
	case *ast.InterfaceType:
		if t.Methods == nil {
			return
		}
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, name := range m.Names {
				if name.IsExported() {
					report(name.Pos(), fmt.Sprintf("exported interface method %s.%s has no doc comment", typeName, name.Name))
				}
			}
		}
	}
}
