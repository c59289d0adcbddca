package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Bufown is the payload-buffer ownership analyzer. internal/bufpool
// hands out reference-counted buffers, and every reference acquired
// from the pool carries an obligation: it must be released exactly
// once, or explicitly handed to another owner. A forgotten Release
// degrades to garbage collection (the pool never recycles the buffer),
// a double Release recycles a buffer that is still in use. Both are
// invisible to the race detector because they are pure protocol bugs,
// so the protocol is checked statically here.
//
// The analyzer tracks local variables bound to reference-acquiring
// expressions through a path-sensitive walk of each function body:
//
//   - bufpool.Get(...) and bufpool.Adopt(...) calls,
//   - x.Retain() method calls (any receiver), and
//   - calls to same-package functions returning *bufpool.Buf
//
// each bind an OWNED reference. On every path out of the function an
// owned reference must have been discharged:
//
//   - v.Release() releases it,
//   - returning v transfers it to the caller,
//   - passing v to a same-package function whose parameter is
//     annotated //netagg:owns <param> transfers it to the callee,
//   - a store, channel send, or goroutine hand-off on a line carrying
//     a //netagg:owns <var> marker transfers it to the new home.
//
// A path on which an owned reference is neither released nor handed
// off is reported at the return (or scope end) that leaks it; a path
// that releases twice is reported at the second Release.
//
// Annotation grammar (doc comments on the owning function):
//
//	//netagg:owns <param>     the function takes over <param>'s reference
//	//netagg:borrows <param>  the function may read <param> only for the
//	                          duration of the call: storing it into a
//	                          field, sending it on a channel, or handing
//	                          it to a goroutine is reported
//
// and, trailing a statement (or standalone on the line above it):
//
//	//netagg:owns <var>  sanctions a store/send/go hand-off
//
// An audited violation takes //lint:ignore bufown <reason>.
//
// Scope: non-test files that import netagg/internal/bufpool or
// netagg/internal/wire (the wire layer re-exports pool references as
// Msg.Buf), excluding the bufpool package itself, whose internals
// manipulate refcounts directly.
//
// Known false negatives, by design (documented in DESIGN.md §13):
// cross-package calls are opaque (msg.TakeBuf() from another package is
// not an acquire), references stored into local containers or acquired
// inline as call arguments are assumed transferred, closures other than
// `defer func() { v.Release() }()` are analyzed as separate scopes and
// do not discharge captured variables, and loop bodies are analyzed for
// one iteration in isolation. The analyzer errs towards silence: it
// reports only what it can prove on the syntax it understands.
type Bufown struct{}

// Name implements Analyzer.
func (Bufown) Name() string { return "bufown" }

// Doc implements Analyzer.
func (Bufown) Doc() string {
	return "pool buffer references must be released exactly once or explicitly handed off"
}

const (
	bufpoolPath = "netagg/internal/bufpool"
	wirePath    = "netagg/internal/wire"
)

// CheckPackage implements PackageAnalyzer.
func (Bufown) CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string)) {
	if p.inScope("bufpool") {
		return
	}
	inScope := false
	for _, f := range p.files {
		if importName(f.AST, bufpoolPath) != "" || importName(f.AST, wirePath) != "" {
			inScope = true
		}
	}
	if !inScope {
		return
	}

	bo := &bufownPkg{pkg: p, returnsBuf: make(map[string]bool)}
	for key, fs := range p.funcs {
		bo.returnsBuf[key] = returnsBufPtr(fs)
	}

	for _, key := range p.keys {
		fs := p.funcs[key]
		f := fs.file
		if importName(f.AST, bufpoolPath) == "" && importName(f.AST, wirePath) == "" {
			continue
		}
		if fs.decl.Body == nil {
			continue
		}
		w := &bufownWalk{
			bo:          bo,
			fs:          fs,
			f:           f,
			bufpoolName: importName(f.AST, bufpoolPath),
			report:      report,
		}
		w.checkFunc()
	}
}

// bufownPkg is the per-package analysis context.
type bufownPkg struct {
	pkg *pkgSummary
	// returnsBuf marks functions whose results include *bufpool.Buf:
	// calling them acquires a reference.
	returnsBuf map[string]bool
}

// returnsBufPtr reports whether the function's results include a
// *bufpool.Buf (resolved against its own file's import name).
func returnsBufPtr(fs *funcSummary) bool {
	results := fs.decl.Type.Results
	if results == nil {
		return false
	}
	name := importName(fs.file.AST, bufpoolPath)
	if name == "" {
		return false
	}
	for _, field := range results.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		if sel, ok := star.X.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && sel.Sel.Name == "Buf" {
				return true
			}
		}
	}
	return false
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

// Ownership states for one tracked variable.
type ownState int

const (
	// stOwned: holds a live reference that this function must discharge.
	stOwned ownState = iota
	// stMaybe: owned on some control-flow paths into this point, already
	// discharged on others. A later Release is legal (it settles the
	// owned paths); reaching a function exit is a partial leak.
	stMaybe
	// stDone: released, or ownership transferred elsewhere.
	stDone
	// stBorrowed: a //netagg:borrows parameter — never this function's
	// to release, store, or hand off.
	stBorrowed
)

// ownVar is the abstract state of one tracked variable.
type ownVar struct {
	state ownState
	pos   token.Pos // acquisition site
	what  string    // acquiring expression, for diagnostics
}

// ownEnv maps variable names to their ownership state on the current
// path. Branches walk clones and merge.
type ownEnv map[string]*ownVar

func (e ownEnv) clone() ownEnv {
	c := make(ownEnv, len(e))
	for k, v := range e {
		cp := *v
		c[k] = &cp
	}
	return c
}

// mergeInto folds the surviving branch environments into env. Vars
// present in only some survivors (bound inside a branch and leaked past
// our block tracking) are dropped.
func mergeInto(env ownEnv, survivors []ownEnv) {
	for k := range env {
		delete(env, k)
	}
	if len(survivors) == 0 {
		return
	}
	for name, v := range survivors[0] {
		cp := *v
		env[name] = &cp
	}
	for _, s := range survivors[1:] {
		for name, v := range env {
			o, ok := s[name]
			if !ok {
				delete(env, name)
				continue
			}
			v.state = mergeState(v.state, o.state)
		}
	}
}

func mergeState(a, b ownState) ownState {
	if a == b {
		return a
	}
	if a == stBorrowed || b == stBorrowed {
		return stBorrowed
	}
	// Any disagreement between owned and done is "owned on some paths".
	return stMaybe
}

// bufownWalk checks one function body.
type bufownWalk struct {
	bo          *bufownPkg
	fs          *funcSummary
	f           *File
	bufpoolName string // this file's import name for bufpool ("" if none)
	report      func(pos token.Pos, msg string)
}

func (w *bufownWalk) line(p token.Pos) int { return w.f.Fset.Position(p).Line }

// ownsLine reports whether the statement's line sanctions hand-offs.
func (w *bufownWalk) ownsLine(pos token.Pos) bool { return w.f.owns[w.line(pos)] }

func (w *bufownWalk) checkFunc() {
	env := make(ownEnv)
	for _, name := range paramNames(w.fs.decl) {
		switch w.fs.paramAnns[name] {
		case "owns":
			env[name] = &ownVar{state: stOwned, pos: w.fs.decl.Pos(), what: "//netagg:owns parameter"}
		case "borrows":
			env[name] = &ownVar{state: stBorrowed, pos: w.fs.decl.Pos(), what: "//netagg:borrows parameter"}
		}
	}
	if !w.walkStmts(w.fs.decl.Body.List, env) {
		w.checkExit(env, w.fs.decl.Body.Rbrace)
	}
}

// checkExit reports every still-owned reference on a path leaving the
// function at pos.
func (w *bufownWalk) checkExit(env ownEnv, pos token.Pos) {
	names := make([]string, 0, len(env))
	for name := range env {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := env[name]
		switch v.state {
		case stOwned:
			w.report(pos, fmt.Sprintf("reference %q (%s, line %d) leaks on this path: Release it, return it, or hand it off with //netagg:owns", name, v.what, w.line(v.pos)))
		case stMaybe:
			w.report(pos, fmt.Sprintf("reference %q (%s, line %d) is released on some paths but not this one", name, v.what, w.line(v.pos)))
		case stDone, stBorrowed:
			// Discharged, or never ours to release.
		}
	}
}

// walkStmts runs the statements in order; a true result means the path
// terminated (return, panic, branch) and the rest is unreachable.
func (w *bufownWalk) walkStmts(stmts []ast.Stmt, env ownEnv) bool {
	for _, s := range stmts {
		if w.walkStmt(s, env) {
			return true
		}
	}
	return false
}

// walkBlock walks a nested scope: variables first bound inside it that
// still carry an obligation when it ends have leaked.
func (w *bufownWalk) walkBlock(b *ast.BlockStmt, env ownEnv) bool {
	before := make(map[string]bool, len(env))
	for k := range env {
		before[k] = true
	}
	term := w.walkStmts(b.List, env)
	for name, v := range env {
		if before[name] {
			continue
		}
		if !term && (v.state == stOwned || v.state == stMaybe) {
			w.report(b.Rbrace, fmt.Sprintf("reference %q (%s, line %d) goes out of scope without Release", name, v.what, w.line(v.pos)))
		}
		delete(env, name)
	}
	return term
}

func (w *bufownWalk) walkStmt(stmt ast.Stmt, env ownEnv) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		w.assign(s, env)
	case *ast.DeclStmt:
		w.declStmt(s, env)
	case *ast.ExprStmt:
		if isPanicCall(s.X) {
			return true
		}
		w.exprStmt(s.X, env)
	case *ast.SendStmt:
		w.handOff(s.Pos(), s.Value, env, "sent on a channel")
	case *ast.GoStmt:
		w.handOff(s.Pos(), s.Call, env, "captured by a goroutine")
	case *ast.DeferStmt:
		w.deferStmt(s, env)
	case *ast.ReturnStmt:
		w.returnStmt(s, env)
		return true
	case *ast.IfStmt:
		return w.ifStmt(s, env)
	case *ast.ForStmt:
		body := env.clone()
		if s.Init != nil {
			w.walkStmt(s.Init, body)
		}
		w.walkBlock(s.Body, body)
	case *ast.RangeStmt:
		w.walkBlock(s.Body, env.clone())
	case *ast.SwitchStmt:
		return w.clauses(s.Init, s.Body, env, true)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Init, s.Body, env, true)
	case *ast.SelectStmt:
		return w.clauses(nil, s.Body, env, false)
	case *ast.BlockStmt:
		return w.walkBlock(s, env)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, env)
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough abandon this path; the target
		// is analyzed via its own fall-through edge.
		return true
	}
	return false
}

// declStmt handles `var v = <acquire>` like a short assignment.
func (w *bufownWalk) declStmt(s *ast.DeclStmt, env ownEnv) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
			continue
		}
		w.bind(vs.Names[0], vs.Values[0], env)
	}
}

func (w *bufownWalk) assign(s *ast.AssignStmt, env ownEnv) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			w.bind(id, s.Rhs[0], env)
			return
		}
	}
	// Complex or multi-value assignment: rebinding a name over a live
	// reference loses it, and a store into a field/element is a hand-off
	// that needs a marker.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v := env[id.Name]; v != nil && v.state == stOwned {
				w.report(s.Pos(), fmt.Sprintf("%q is reassigned while still owning its reference (%s, line %d)", id.Name, v.what, w.line(v.pos)))
			}
			delete(env, id.Name)
		}
	}
	for _, rhs := range s.Rhs {
		w.storeCheck(s.Pos(), rhs, env, "stored")
	}
}

// bind handles `name := rhs` / `name = rhs`.
func (w *bufownWalk) bind(id *ast.Ident, rhs ast.Expr, env ownEnv) {
	name := id.Name
	if desc, ok := w.acquireDesc(rhs); ok {
		if name == "_" {
			if !w.ownsLine(id.Pos()) {
				w.report(id.Pos(), fmt.Sprintf("result of %s is discarded: the reference can never be released (mark the hand-off with //netagg:owns if intended)", desc))
			}
			return
		}
		if v := env[name]; v != nil && v.state == stOwned {
			w.report(id.Pos(), fmt.Sprintf("%q is rebound while still owning its reference (%s, line %d)", name, v.what, w.line(v.pos)))
		}
		env[name] = &ownVar{state: stOwned, pos: id.Pos(), what: desc}
		return
	}
	if src, ok := rhs.(*ast.Ident); ok {
		if v := env[src.Name]; v != nil {
			if name == "_" || name == src.Name {
				return
			}
			cp := *v
			env[name] = &cp
			if v.state == stOwned || v.state == stMaybe {
				// Linear transfer: the obligation moves with the alias.
				v.state = stDone
			}
			return
		}
	}
	// Arbitrary RHS: rebinding over a live reference loses it; tracked
	// vars sunk into a locally-bound container transfer silently (the
	// container's fate is out of reach, see the false-negative notes).
	if v := env[name]; v != nil && v.state == stOwned {
		w.report(id.Pos(), fmt.Sprintf("%q is reassigned while still owning its reference (%s, line %d)", name, v.what, w.line(v.pos)))
		delete(env, name)
	}
	for _, tracked := range w.storedVars(rhs, env) {
		v := env[tracked]
		if v.state == stOwned || v.state == stMaybe {
			v.state = stDone
		}
	}
	w.callEffects(rhs, env)
}

// storeCheck flags tracked variables sunk into a non-local destination
// (field, element) without an ownership marker; borrowed references are
// flagged unconditionally.
func (w *bufownWalk) storeCheck(pos token.Pos, rhs ast.Expr, env ownEnv, how string) {
	for _, name := range w.storedVars(rhs, env) {
		v := env[name]
		switch v.state {
		case stBorrowed:
			w.report(pos, fmt.Sprintf("borrowed %q escapes (%s): the caller owns its backing buffer only for this call", name, how))
		case stOwned, stMaybe:
			if !w.ownsLine(pos) {
				w.report(pos, fmt.Sprintf("owned reference %q is %s without an ownership marker: annotate the line with //netagg:owns %s", name, how, name))
			}
			v.state = stDone
		case stDone:
			// Already discharged; storing a dead handle is harmless here.
		}
	}
	w.callEffects(rhs, env)
}

// handOff checks channel sends and goroutine launches: both move the
// reference beyond this function's control flow.
func (w *bufownWalk) handOff(pos token.Pos, e ast.Expr, env ownEnv, how string) {
	names := make(map[string]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && env[id.Name] != nil {
			names[id.Name] = true
		}
		return true
	})
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		v := env[name]
		switch v.state {
		case stBorrowed:
			w.report(pos, fmt.Sprintf("borrowed %q is %s: the caller owns its backing buffer only for this call", name, how))
		case stOwned, stMaybe:
			if !w.ownsLine(pos) {
				w.report(pos, fmt.Sprintf("owned reference %q is %s without an ownership marker: annotate the line with //netagg:owns %s", name, how, name))
			}
			v.state = stDone
		case stDone:
			// Already discharged; the hand-off carries a dead handle.
		}
	}
}

func (w *bufownWalk) exprStmt(e ast.Expr, env ownEnv) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	if name, ok := releaseReceiver(call); ok {
		v := env[name]
		if v == nil {
			return
		}
		switch v.state {
		case stOwned, stMaybe:
			v.state = stDone
		case stDone:
			w.report(call.Pos(), fmt.Sprintf("double Release of %q: its reference (%s, line %d) was already released or handed off", name, v.what, w.line(v.pos)))
		case stBorrowed:
			w.report(call.Pos(), fmt.Sprintf("Release of borrowed %q: the caller owns this reference", name))
		}
		return
	}
	if desc, ok := w.acquireDesc(e); ok {
		if !w.ownsLine(e.Pos()) {
			w.report(e.Pos(), fmt.Sprintf("result of %s is discarded: the reference can never be released (mark the hand-off with //netagg:owns if intended)", desc))
		}
		return
	}
	w.callEffects(e, env)
}

// callEffects applies the argument-passing rules of every call inside
// e: a bare tracked argument moves to a callee parameter annotated
// //netagg:owns, is sanctioned by a line marker, and otherwise stays
// with the caller (callees borrow by default). Function literals are
// walked as separate scopes so acquisitions inside them are checked.
func (w *bufownWalk) callEffects(e ast.Expr, env ownEnv) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			w.callArgs(v, env)
		case *ast.FuncLit:
			w.walkStmts(v.Body.List, make(ownEnv))
			return false
		}
		return true
	})
}

func (w *bufownWalk) callArgs(call *ast.CallExpr, env ownEnv) {
	var callee *funcSummary
	var calleeParams []string
	if key := w.bo.pkg.resolveCallee(w.fs.typeEnv, call); key != "" {
		if callee = w.bo.pkg.funcs[key]; callee != nil {
			calleeParams = paramNames(callee.decl)
		}
	}
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		v := env[id.Name]
		if v == nil || (v.state != stOwned && v.state != stMaybe) {
			continue
		}
		if w.ownsLine(call.Pos()) {
			v.state = stDone
			continue
		}
		if i < len(calleeParams) && callee.paramAnns[calleeParams[i]] == "owns" {
			v.state = stDone
		}
	}
}

func (w *bufownWalk) deferStmt(s *ast.DeferStmt, env ownEnv) {
	if name, ok := releaseReceiver(s.Call); ok {
		v := env[name]
		if v == nil {
			return
		}
		switch v.state {
		case stOwned, stMaybe:
			// The deferred Release covers every exit from here on.
			v.state = stDone
		case stDone:
			w.report(s.Pos(), fmt.Sprintf("deferred double Release of %q: its reference (%s, line %d) was already released or handed off", name, v.what, w.line(v.pos)))
		case stBorrowed:
			w.report(s.Pos(), fmt.Sprintf("deferred Release of borrowed %q: the caller owns this reference", name))
		}
		return
	}
	// defer func() { ... v.Release() ... }(): the one closure-capture
	// discharge the analyzer understands.
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := releaseReceiver(call); ok {
				if v := env[name]; v != nil && (v.state == stOwned || v.state == stMaybe) {
					v.state = stDone
				}
			}
			return true
		})
		return
	}
	w.callEffects(s.Call, env)
}

func (w *bufownWalk) returnStmt(s *ast.ReturnStmt, env ownEnv) {
	for _, res := range s.Results {
		// Any tracked reference reachable from a result value travels to
		// the caller (bare return, or inside a returned container).
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := env[id.Name]; v != nil && (v.state == stOwned || v.state == stMaybe) {
					v.state = stDone
				}
			}
			return true
		})
		w.callEffects(res, env)
	}
	w.checkExit(env, s.Pos())
}

func (w *bufownWalk) ifStmt(s *ast.IfStmt, env ownEnv) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, env)
	}
	w.callEffects(s.Cond, env)
	thenEnv := env.clone()
	thenTerm := w.walkBlock(s.Body, thenEnv)
	elseEnv := env.clone()
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.walkStmt(s.Else, elseEnv)
	}
	var survivors []ownEnv
	if !thenTerm {
		survivors = append(survivors, thenEnv)
	}
	if !elseTerm {
		survivors = append(survivors, elseEnv)
	}
	mergeInto(env, survivors)
	return len(survivors) == 0
}

// clauses walks a switch/type-switch/select body: each clause starts
// from the entry state, survivors merge. implicitFallthrough adds the
// entry state itself as a survivor when no default clause exists (the
// switch may match nothing).
func (w *bufownWalk) clauses(init ast.Stmt, body *ast.BlockStmt, env ownEnv, implicitFallthrough bool) bool {
	if init != nil {
		w.walkStmt(init, env)
	}
	var survivors []ownEnv
	hasDefault := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		isDefault := false
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts, isDefault = c.Body, c.List == nil
		case *ast.CommClause:
			isDefault = c.Comm == nil
			if c.Comm != nil {
				stmts = append([]ast.Stmt{c.Comm}, c.Body...)
			} else {
				stmts = c.Body
			}
		default:
			continue
		}
		if isDefault {
			hasDefault = true
		}
		ce := env.clone()
		if !w.walkStmts(stmts, ce) {
			survivors = append(survivors, ce)
		}
	}
	if implicitFallthrough && !hasDefault {
		survivors = append(survivors, env.clone())
	}
	mergeInto(env, survivors)
	return len(survivors) == 0
}

// acquireDesc reports whether e creates a new pool reference and
// describes how.
func (w *bufownWalk) acquireDesc(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		pkgIdent, isIdent := sel.X.(*ast.Ident)
		if isIdent && w.bufpoolName != "" && pkgIdent.Name == w.bufpoolName {
			if sel.Sel.Name == "Get" || sel.Sel.Name == "Adopt" {
				return w.bufpoolName + "." + sel.Sel.Name, true
			}
		} else if sel.Sel.Name == "Retain" && len(call.Args) == 0 {
			return exprString(sel.X) + ".Retain()", true
		}
	}
	if key := w.bo.pkg.resolveCallee(w.fs.typeEnv, call); key != "" && w.bo.returnsBuf[key] {
		return key, true
	}
	return "", false
}

// releaseReceiver matches `<ident>.Release()` and returns the receiver
// name.
func releaseReceiver(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// storedVars returns the tracked variables that rhs sinks into a
// container: bare idents, composite-literal elements, append arguments,
// and &-of those. A method call on a tracked variable (v.Bytes()) is a
// read, not a store.
func (w *bufownWalk) storedVars(rhs ast.Expr, env ownEnv) []string {
	var out []string
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		switch v := e.(type) {
		case *ast.Ident:
			if env[v.Name] != nil {
				out = append(out, v.Name)
			}
		case *ast.UnaryExpr:
			visit(v.X)
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					visit(kv.Value)
					continue
				}
				visit(elt)
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range v.Args {
					visit(arg)
				}
			}
		case *ast.SliceExpr:
			visit(v.X)
		}
	}
	visit(rhs)
	return out
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
