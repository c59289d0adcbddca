package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// CtxFlow is the context-propagation analyzer. Cancellation is the data
// plane's only defence against wedged peers, so every potentially
// unbounded blocking operation must be reachable by a cancel signal.
// Two rules, both on non-test code:
//
//  1. context.Background() / context.TODO() outside package main is a
//     severed cancellation chain: callers can never cancel what runs
//     under it. The one exempt idiom is the nil-parameter fallback,
//     if ctx == nil { ctx = context.Background() }, which only fires
//     when the caller explicitly opted out.
//
//  2. In ctxflowPackages, a function that HAS a context available —
//     a context.Context parameter, or a receiver struct carrying a
//     context field — must use it at its blocking points: naked channel
//     sends/receives, selects with no ctx.Done/default/timer case, and
//     time.Sleep are flagged. Functions with no context in reach are not
//     flagged (that is rule 2's false-negative limit: the analyzer
//     cannot demand a parameter be added, only that an available one be
//     consulted).
//
// Receives from ctx.Done(), timer channels (time.After, .C) and sends
// executed by test files are exempt. Functions whose name mentions
// backoff are exempt from the Sleep rule — a backoff helper's whole job
// is to sleep, and its callers own cancellation.
type CtxFlow struct{}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "blocking operations must be cancellable: no severed or ignored contexts"
}

// ctxflowPackages are the packages that hold a context: the transport
// (a connection's dial and teardown) and the cluster's failure monitor.
// The rest of the data plane holds none, so rule 2 would have nothing to
// consult there.
var ctxflowPackages = []string{"cluster", "transport"}

// CheckPackage implements PackageAnalyzer.
func (CtxFlow) CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string)) {
	// Rule 1 applies to every non-test, non-main package.
	for _, f := range p.files {
		if f.AST.Name.Name != "main" {
			checkBackground(f, report)
		}
	}

	// Rule 2 is scoped to the packages that hold a context, where
	// blocking against a dead peer is the failure mode the paper's fault
	// model cares about.
	if !p.inScope(ctxflowPackages...) {
		return
	}
	for _, key := range p.keys {
		fs := p.funcs[key]
		ctxAvail := fs.ctxParam != "" || p.ctxFields[fs.recvType]
		for _, b := range fs.blocks {
			switch b.kind {
			case blockSelect:
				report(b.pos, "select can block forever: add a ctx.Done(), timer, or default case")
			case blockSend:
				if ctxAvail {
					report(b.pos, fmt.Sprintf("channel send on %s cannot be cancelled: select on it together with ctx.Done()", b.desc))
				}
			case blockRecv:
				if ctxAvail && !cancellableRecv(b.desc) {
					report(b.pos, fmt.Sprintf("channel receive from %s cannot be cancelled: select on it together with ctx.Done()", b.desc))
				}
			case blockSleep:
				if ctxAvail && !strings.Contains(strings.ToLower(key), "backoff") {
					report(b.pos, "time.Sleep ignores cancellation: use a timer in a select with ctx.Done()")
				}
			case blockSelectBounded, blockCall:
				// Bounded, or blocked on a peer rather than a missing
				// cancel signal: lockdiscipline's business, not a rule here.
			}
		}
	}
}

// cancellableRecv reports whether a naked receive is inherently bounded:
// ctx.Done() receives are cancellation itself, timer channels fire.
func cancellableRecv(desc string) bool {
	return strings.Contains(desc, ".Done(") || strings.HasPrefix(desc, "time.After") ||
		strings.HasSuffix(desc, ".C")
}

// checkBackground flags context.Background() / context.TODO() calls
// outside the nil-fallback idiom.
func checkBackground(f *File, report func(pos token.Pos, msg string)) {
	ctxPkg := importName(f.AST, "context")
	if ctxPkg == "" {
		return
	}

	// First pass: positions excused by the nil-fallback idiom — an
	// assignment `x = context.Background()` directly inside an if whose
	// condition is `x == nil`.
	exempt := make(map[token.Pos]bool)
	ast.Inspect(f.AST, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		checked := nilCheckedExpr(ifs.Cond)
		if checked == "" {
			return true
		}
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			if exprString(as.Lhs[0]) != checked {
				continue
			}
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isBackgroundCall(call, ctxPkg) {
				exempt[call.Pos()] = true
			}
		}
		return true
	})

	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBackgroundCall(call, ctxPkg) || exempt[call.Pos()] {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr)
		report(call.Pos(), fmt.Sprintf(
			"context.%s() severs the cancellation chain outside package main: accept a ctx or fall back only when the caller passed nil",
			sel.Sel.Name))
		return true
	})
}

// nilCheckedExpr returns the rendering of x for conditions `x == nil`
// ("" when the condition has another shape).
func nilCheckedExpr(cond ast.Expr) string {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return ""
	}
	if id, ok := be.Y.(*ast.Ident); !ok || id.Name != "nil" {
		return ""
	}
	switch be.X.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return exprString(be.X)
	}
	return ""
}

// isBackgroundCall matches ctxPkg.Background() and ctxPkg.TODO().
func isBackgroundCall(call *ast.CallExpr, ctxPkg string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != ctxPkg {
		return false
	}
	return sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"
}
