package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"netagg/internal/wire"
)

// Protocheck is the wire-protocol conformance analyzer. The protocol
// contract lives in one declarative table (internal/wire/protocol.go):
// per frame type, which roles may send and receive it, whether the
// receiving handler must pass an epoch/sequence guard before mutating
// request state. This analyzer checks every annotated frame-dispatch
// switch against that table — the lint package imports the table
// directly, so the spec and the checker cannot drift apart.
//
// A handler opts in with a doc-comment directive naming its role:
//
//	//netagg:proto-handler <worker|box|master|monitor>
//
// on the function that owns the dispatch switch on `<msg>.Type`, where
// <msg> is the function's *wire.Msg parameter. For each annotated
// handler the analyzer reports:
//
//   - structural defects: an unknown role name, a missing *wire.Msg
//     parameter, or no dispatch switch at all (an `if m.Type != X`
//     filter silently conflates every other frame with the expected
//     one);
//   - frames handled but not receivable: a case arm for a frame type
//     whose rule does not list this role as a receiver;
//   - receivable frames left unhandled: a rule listing this role as a
//     receiver with no matching case arm (a default arm does not
//     count — unexpected-frame logging must not swallow protocol
//     frames);
//   - unguarded state mutation: for frames the table marks epoch-
//     guarded at this role, a mutation of non-local state (field or
//     element assignment, ++/--, delete) reachable before an
//     attempt/sequence guard — recovery re-sends deliver a frame more
//     than once, so such a mutation double-counts.
//
// What a handler does with the payload buffer is not checked here: the
// Msg.Buf contract is checked at run time (DESIGN.md §13).
//
// The mutation check traces the whole handler body for each guarded
// frame type, one at a time: conditions and switches on `<msg>.Type`
// are evaluated definitively against the traced frame (pruning arms
// the frame cannot reach), an `if` whose condition mentions an
// attempt/seq/epoch name and whose body terminates marks the path
// guarded, and calls passing the message to a resolvable same-package
// callee are followed (depth-first, cycle-safe). Function literals and
// `go` statements are not traced. Like the rest of the suite the
// analyzer errs towards silence: what it cannot resolve it does not
// report.
//
// Suppression: //lint:ignore protocheck <reason> on the flagged line.
type Protocheck struct{}

// Name implements Analyzer.
func (Protocheck) Name() string { return "protocheck" }

// Doc implements Analyzer.
func (Protocheck) Doc() string {
	return "frame-dispatch switches must conform to the wire protocol table (internal/wire/protocol.go)"
}

// wirePath is the import path of the package that declares wire.Msg.
const wirePath = "netagg/internal/wire"

// CheckPackage implements PackageAnalyzer.
func (Protocheck) CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string)) {
	pc := &protoPkg{pkg: p, rules: make(map[string]wire.Rule)}
	for _, r := range wire.Protocol() {
		pc.rules[r.Name] = r
	}
	for _, key := range p.keys {
		fs := p.funcs[key]
		roleName, ok := protoHandlerRole(fs.decl)
		if !ok {
			continue
		}
		pc.checkHandler(fs, roleName, report)
	}
}

// protoPkg is the per-package analysis context.
type protoPkg struct {
	pkg *pkgSummary
	// rules indexes the protocol table by frame constant name ("TData").
	rules map[string]wire.Rule
}

// protoHandlerRole returns the role a function's //netagg:proto-handler
// doc directive names ("" if it names none); ok is false without one.
func protoHandlerRole(decl *ast.FuncDecl) (role string, ok bool) {
	ds := docDirectives(decl, "proto-handler")
	if ds == nil {
		return "", false
	}
	if len(ds[0]) > 0 {
		role = ds[0][0]
	}
	return role, true
}

// msgParamName finds the name of the function's *wire.Msg parameter
// under the file's import name for the wire package.
func msgParamName(decl *ast.FuncDecl, wireName string) string {
	if decl.Type.Params == nil || wireName == "" {
		return ""
	}
	for _, field := range decl.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != wireName || sel.Sel.Name != "Msg" {
			continue
		}
		if len(field.Names) > 0 && field.Names[0].Name != "_" {
			return field.Names[0].Name
		}
	}
	return ""
}

// isMsgTypeSel matches the `<msg>.Type` selector.
func isMsgTypeSel(e ast.Expr, msgName string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == msgName && sel.Sel.Name == "Type"
}

// findDispatchSwitch locates the switch on `<msg>.Type` in the handler
// body (function literals excluded).
func findDispatchSwitch(body *ast.BlockStmt, msgName string) *ast.SwitchStmt {
	var found *ast.SwitchStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil && isMsgTypeSel(sw.Tag, msgName) {
			found = sw
			return false
		}
		return true
	})
	return found
}

// frameConst resolves `<wire>.<TName>` to the protocol rule name it
// denotes ("" if it is not a known frame constant).
func (pc *protoPkg) frameConst(e ast.Expr, wireName string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || wireName == "" {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != wireName {
		return ""
	}
	if _, known := pc.rules[sel.Sel.Name]; known {
		return sel.Sel.Name
	}
	return ""
}

// checkHandler runs every protocol check on one annotated handler.
func (pc *protoPkg) checkHandler(fs *funcSummary, roleName string, report func(pos token.Pos, msg string)) {
	decl := fs.decl
	role, ok := wire.ParseRole(roleName)
	if !ok {
		report(decl.Pos(), fmt.Sprintf("//netagg:proto-handler names unknown role %q (want worker, box, master, or monitor)", roleName))
		return
	}
	wireName := importName(fs.file.AST, wirePath)
	msgName := msgParamName(decl, wireName)
	if msgName == "" {
		report(decl.Pos(), fmt.Sprintf("proto-handler %s (role %s) has no *wire.Msg parameter to dispatch on", decl.Name.Name, role))
		return
	}
	sw := findDispatchSwitch(decl.Body, msgName)
	if sw == nil {
		report(decl.Pos(), fmt.Sprintf("proto-handler %s (role %s) has no frame-dispatch switch on %s.Type: an if-filter silently conflates unexpected frames with the expected one", decl.Name.Name, role, msgName))
		return
	}

	// Handled frames, and frames handled without the right to receive.
	handled := make(map[string]token.Pos)
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			name := pc.frameConst(e, wireName)
			if name == "" {
				continue
			}
			if _, dup := handled[name]; !dup {
				handled[name] = e.Pos()
			}
			rule := pc.rules[name]
			if !rule.MayReceive(role) {
				report(e.Pos(), fmt.Sprintf("role %s handles %s but the protocol does not list it as a receiver (receivers: %s)", role, name, roleNames(rule.Receivers)))
			}
		}
	}

	// Receivable frames with no case arm, as one deterministic finding
	// in table order (a default arm is for unexpected frames and does
	// not satisfy the table).
	var missing []string
	for _, r := range wire.Protocol() {
		if !r.MayReceive(role) {
			continue
		}
		if _, ok := handled[r.Name]; !ok {
			missing = append(missing, r.Name)
		}
	}
	if len(missing) > 0 {
		report(sw.Pos(), fmt.Sprintf("role %s must receive %s but the dispatch switch has no case for it", role, strings.Join(missing, ", ")))
	}

	// Per handled epoch-guarded frame: no state mutation before the guard.
	for _, r := range wire.Protocol() {
		if _, ok := handled[r.Name]; !ok || !r.GuardedAt(role) {
			continue
		}
		for _, m := range pc.trace(fs, msgName, r) {
			report(m.pos, fmt.Sprintf("state mutation of %s on epoch-guarded frame %s is reachable before the attempt/seq guard: a re-sent frame double-counts it", m.desc, r.Name))
		}
	}
}

// roleNames renders a role list for diagnostics.
func roleNames(roles []wire.Role) string {
	if len(roles) == 0 {
		return "(none)"
	}
	names := make([]string, len(roles))
	for i, r := range roles {
		names[i] = r.String()
	}
	return strings.Join(names, ", ")
}

// --- frame-scoped trace ------------------------------------------------

// traceSite is one recorded mutation site.
type traceSite struct {
	pos  token.Pos
	desc string
}

// protoTrace walks a handler (and resolvable callees receiving the
// message) for ONE frame type, recording the unguarded state mutations
// reachable by that frame.
type protoTrace struct {
	pc   *protoPkg
	rule wire.Rule

	mutations []traceSite
	seenMut   map[token.Pos]bool
	visited   map[string]bool
}

// traceFrame is the per-function context of the trace: which local name
// the message travels under and the file's wire import name.
type traceFrame struct {
	fs       *funcSummary
	msgName  string
	wireName string
}

// traceState is the per-path abstract state.
type traceState struct {
	guarded    bool
	terminated bool
}

// trace runs a fresh frame-scoped walk over the handler and returns the
// unguarded mutations it reached.
func (pc *protoPkg) trace(fs *funcSummary, msgName string, rule wire.Rule) []traceSite {
	t := &protoTrace{
		pc:      pc,
		rule:    rule,
		seenMut: make(map[token.Pos]bool),
		visited: make(map[string]bool),
	}
	t.visited[fs.key] = true
	fr := &traceFrame{fs: fs, msgName: msgName, wireName: importName(fs.file.AST, wirePath)}
	t.walkStmts(fr, fs.decl.Body.List, traceState{})
	return t.mutations
}

func (t *protoTrace) mutation(pos token.Pos, desc string) {
	if t.seenMut[pos] {
		return
	}
	t.seenMut[pos] = true
	t.mutations = append(t.mutations, traceSite{pos: pos, desc: desc})
}

func (t *protoTrace) walkStmts(fr *traceFrame, stmts []ast.Stmt, st traceState) traceState {
	for _, s := range stmts {
		st = t.stmt(fr, s, st)
		if st.terminated {
			break
		}
	}
	return st
}

func (t *protoTrace) stmt(fr *traceFrame, stmt ast.Stmt, st traceState) traceState {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if isPanicCall(s.X) {
			st.terminated = true
			return st
		}
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
				if !st.guarded {
					if target := mutTarget(call.Args[0]); target != "" {
						t.mutation(s.Pos(), "delete from "+target)
					}
				}
			}
		}
		t.scanExpr(fr, s.X, st)

	case *ast.AssignStmt:
		if !st.guarded {
			for _, lhs := range s.Lhs {
				if target := mutTarget(lhs); target != "" {
					t.mutation(s.Pos(), target)
				}
			}
		}
		for _, rhs := range s.Rhs {
			t.scanExpr(fr, rhs, st)
		}

	case *ast.IncDecStmt:
		if !st.guarded {
			if target := mutTarget(s.X); target != "" {
				t.mutation(s.Pos(), target)
			}
		}

	case *ast.IfStmt:
		return t.ifStmt(fr, s, st)

	case *ast.SwitchStmt:
		return t.switchStmt(fr, s, st)

	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				t.walkStmts(fr, cc.Body, st)
			}
		}

	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				t.stmt(fr, cc.Comm, st)
			}
			t.walkStmts(fr, cc.Body, st)
		}

	case *ast.ForStmt:
		inner := st
		if s.Init != nil {
			inner = t.stmt(fr, s.Init, inner)
		}
		if s.Cond != nil {
			t.scanExpr(fr, s.Cond, inner)
		}
		t.walkStmts(fr, s.Body.List, inner)

	case *ast.RangeStmt:
		t.scanExpr(fr, s.X, st)
		t.walkStmts(fr, s.Body.List, st)

	case *ast.BlockStmt:
		return t.walkStmts(fr, s.List, st)

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			t.scanExpr(fr, res, st)
		}
		st.terminated = true

	case *ast.BranchStmt:
		// break/continue/goto leave this path; the frame's remaining
		// statements are analyzed via other edges.
		st.terminated = true

	case *ast.SendStmt:
		t.scanExpr(fr, s.Chan, st)
		t.scanExpr(fr, s.Value, st)

	case *ast.DeferStmt:
		t.scanExpr(fr, s.Call, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						t.scanExpr(fr, v, st)
					}
				}
			}
		}

	case *ast.LabeledStmt:
		return t.stmt(fr, s.Stmt, st)

	case *ast.GoStmt:
		// Goroutines detach from the handler's guard discipline; not
		// traced.
	}
	return st
}

// ifStmt evaluates the condition against the traced frame: a definite
// type test prunes the untaken branch, an epoch-guard pattern (condition
// mentioning attempt/seq/epoch with a terminating body) marks the path
// guarded, and anything else walks both branches conservatively.
func (t *protoTrace) ifStmt(fr *traceFrame, s *ast.IfStmt, st traceState) traceState {
	if s.Init != nil {
		st = t.stmt(fr, s.Init, st)
	}
	t.scanExpr(fr, s.Cond, st)
	switch t.typeTest(fr, s.Cond) {
	case vTrue:
		return t.walkStmts(fr, s.Body.List, st)
	case vFalse:
		if s.Else != nil {
			return t.stmt(fr, s.Else, st)
		}
		return st
	}
	if s.Else == nil && isEpochGuard(s.Cond) && bodyTerminates(s.Body) {
		// The canonical epoch guard: mutations inside its (terminating)
		// body are the unlock-and-bail epilogue, not state changes.
		st.guarded = true
		return st
	}
	bodySt := t.walkStmts(fr, s.Body.List, st)
	elseSt := st
	if s.Else != nil {
		elseSt = t.stmt(fr, s.Else, st)
	}
	out := st
	if bodySt.terminated && s.Else != nil && elseSt.terminated {
		out.terminated = true
	}
	if s.Else != nil && !bodySt.terminated && !elseSt.terminated && bodySt.guarded && elseSt.guarded {
		out.guarded = true
	}
	return out
}

// switchStmt prunes a dispatch switch on `<msg>.Type` to the arm the
// traced frame reaches; other switches walk every arm conservatively.
func (t *protoTrace) switchStmt(fr *traceFrame, s *ast.SwitchStmt, st traceState) traceState {
	if s.Init != nil {
		st = t.stmt(fr, s.Init, st)
	}
	if s.Tag == nil || !isMsgTypeSel(s.Tag, fr.msgName) {
		if s.Tag != nil {
			t.scanExpr(fr, s.Tag, st)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				t.walkStmts(fr, cc.Body, st)
			}
		}
		return st
	}
	var covering, deflt *ast.CaseClause
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			if t.pc.frameConst(e, fr.wireName) == t.rule.Name {
				covering = cc
			}
		}
	}
	if covering == nil {
		covering = deflt
	}
	if covering == nil {
		// The frame matches no arm: execution falls straight through.
		return st
	}
	return t.walkStmts(fr, covering.Body, st)
}

// scanExpr follows resolvable calls that receive the message; function
// literals are separate scopes.
func (t *protoTrace) scanExpr(fr *traceFrame, e ast.Expr, st traceState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			t.followCall(fr, v, st)
		}
		return true
	})
}

// followCall recurses into a same-package callee that receives the
// message as a bare argument, translating the message name into the
// callee's parameter space.
func (t *protoTrace) followCall(fr *traceFrame, call *ast.CallExpr, st traceState) {
	key := t.pc.pkg.resolveCallee(fr.fs.typeEnv, call)
	if key == "" {
		return
	}
	callee := t.pc.pkg.funcs[key]
	if callee == nil || callee.decl.Body == nil {
		return
	}
	params := paramNames(callee.decl)
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok || id.Name != fr.msgName || i >= len(params) {
			continue
		}
		if t.visited[key] {
			continue
		}
		t.visited[key] = true
		sub := &traceFrame{
			fs:       callee,
			msgName:  params[i],
			wireName: importName(callee.file.AST, wirePath),
		}
		t.walkStmts(sub, callee.decl.Body.List, traceState{guarded: st.guarded})
	}
}

// paramNames returns the function's parameter names in declaration
// order, expanding grouped parameters.
func paramNames(decl *ast.FuncDecl) []string {
	var names []string
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
	}
	return names
}

// Tri-state verdicts for type tests against the traced frame.
const (
	vFalse   = -1
	vUnknown = 0
	vTrue    = 1
)

// typeTest evaluates a condition's verdict for the traced frame type:
// comparisons of `<msg>.Type` against frame constants, combined with
// &&, ||, and !. Anything else is unknown.
func (t *protoTrace) typeTest(fr *traceFrame, e ast.Expr) int {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return t.typeTest(fr, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			return -t.typeTest(fr, v.X)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			a, b := t.typeTest(fr, v.X), t.typeTest(fr, v.Y)
			if a == vFalse || b == vFalse {
				return vFalse
			}
			if a == vTrue && b == vTrue {
				return vTrue
			}
		case token.LOR:
			a, b := t.typeTest(fr, v.X), t.typeTest(fr, v.Y)
			if a == vTrue || b == vTrue {
				return vTrue
			}
			if a == vFalse && b == vFalse {
				return vFalse
			}
		case token.EQL, token.NEQ:
			var name string
			if isMsgTypeSel(v.X, fr.msgName) {
				name = t.pc.frameConst(v.Y, fr.wireName)
			} else if isMsgTypeSel(v.Y, fr.msgName) {
				name = t.pc.frameConst(v.X, fr.wireName)
			}
			if name != "" {
				eq := name == t.rule.Name
				if v.Op == token.NEQ {
					eq = !eq
				}
				if eq {
					return vTrue
				}
				return vFalse
			}
		}
	}
	return vUnknown
}

// isEpochGuard reports whether the condition mentions an attempt,
// sequence, or epoch name — the vocabulary of the epoch guards.
func isEpochGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			lower := strings.ToLower(id.Name)
			if strings.Contains(lower, "attempt") || strings.Contains(lower, "seq") || strings.Contains(lower, "epoch") {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyTerminates reports whether the block's last statement leaves the
// enclosing path (return, panic, or a branch).
func bodyTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return isPanicCall(last.X)
	}
	return false
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// mutTarget renders an assignment target that reaches beyond function
// locals (field, element, or pointer dereference); a plain identifier
// returns "".
func mutTarget(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return exprString(e)
	}
	return ""
}
