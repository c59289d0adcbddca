package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// GoroutineHygiene flags `go func` literals that contain an
// unconditional `for {}` loop with no exit path — no return, break,
// select, channel receive, or reference to a shutdown identifier
// (ctx/done/stop/quit/closed) — making the goroutine unstoppable and a
// guaranteed leak on shutdown.
type GoroutineHygiene struct{}

// Name implements Analyzer.
func (GoroutineHygiene) Name() string { return "goroutine-hygiene" }

// Doc implements Analyzer.
func (GoroutineHygiene) Doc() string {
	return "go func literals must have a shutdown path"
}

// Check is the per-file hook.
func (GoroutineHygiene) Check(f *File, report func(pos token.Pos, msg string)) {
	if f.Test {
		return
	}
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkGoLiteral(fl, report)
				}
			}
			return true // nested go statements are literals of their own
		})
	}
}

// checkGoLiteral reports every conditionless loop of one go func literal
// that nothing can stop.
func checkGoLiteral(fl *ast.FuncLit, report func(token.Pos, string)) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if hasExitPath(loop.Body) {
			return true
		}
		report(loop.Pos(), "infinite loop in goroutine has no shutdown path (no return/break/select/receive or ctx/done/stop reference)")
		return true
	})
}

// shutdownNames are identifier substrings that signal a shutdown path.
var shutdownNames = []string{"ctx", "done", "stop", "quit", "closed", "cancel"}

// hasExitPath reports whether the loop body can terminate the goroutine:
// a return, a top-level break, a select or channel receive (assumed to
// observe closure), or any reference to a shutdown-flavoured identifier.
func hasExitPath(body *ast.BlockStmt) bool {
	exit := false
	ast.Inspect(body, func(n ast.Node) bool {
		if exit {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // separate goroutine/closure scope
		case *ast.ReturnStmt, *ast.SelectStmt:
			exit = true
		case *ast.BranchStmt:
			if v.Tok == token.BREAK || v.Tok == token.GOTO {
				exit = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				exit = true // receive: closing the channel unblocks it
			}
		case *ast.CallExpr:
			// Method calls that can fail and lead to return are handled by
			// the ReturnStmt case; panics count too.
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "panic" {
				exit = true
			}
		case *ast.Ident:
			lower := strings.ToLower(v.Name)
			for _, s := range shutdownNames {
				if strings.Contains(lower, s) {
					exit = true
					break
				}
			}
		}
		return !exit
	})
	return exit
}
