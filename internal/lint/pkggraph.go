package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the substrate every PackageAnalyzer reads — lockdiscipline,
// lockorder, ctxflow: a syntactic per-package model of
// functions, struct field types, a call-graph approximation, and
// per-function summaries of lock acquisitions and blocking operations,
// built once per package per Run. summaryScan is the suite's only
// statement walker that tracks held locks.
//
// Resolution is deliberately conservative. A call is an edge only when
// the callee is identifiable without type checking: a package-level
// function `foo(...)`, or a method `x.m(...)` / `x.f.m(...)` whose chain
// of identifiers resolves through the local type environment (receiver,
// parameters, `x := T{...}` / `x := &T{...}` locals, ranges over typed
// fields) and declared struct field types. Unresolved calls are simply
// absent from the graph — the analyzers err towards false negatives,
// never towards noise.

// pkgSummary is the per-package model.
type pkgSummary struct {
	files []*File // the package's non-test files
	// funcs maps "Type.Method" (or "Func" for package-level functions)
	// to its summary.
	funcs map[string]*funcSummary
	// keys is funcs' keys, sorted: the order analyzers visit functions in.
	keys []string
	// all lists every function in file and declaration order, including
	// the ones funcs keeps one of (a key under two build tags, inits).
	all []*funcSummary
	// fieldTypes maps a struct type name to its fields' resolved type
	// names: fieldTypes["Box"]["pool"] == "Pool", and "sync.Cond" for a
	// field of another package's type. Map- and slice-typed fields
	// resolve to their element type (what a range yields).
	fieldTypes map[string]map[string]string
	// ctxFields is the set of struct types carrying a context.Context
	// field — their methods are considered cancellation-aware.
	ctxFields map[string]bool
}

// funcSummary is one function's interprocedural summary.
type funcSummary struct {
	file *File
	decl *ast.FuncDecl
	key  string // "Type.Method" or "Func"

	recvName string // receiver identifier ("" for functions)
	recvType string // receiver type name ("" for functions)

	ctxParam string // name of the context.Context parameter ("" if none)

	acquires []lockAcq // direct lock acquisitions
	calls    []callRef // resolvable same-package calls
	blocks   []blockOp // direct blocking operations
	typeEnv  typeEnv   // identifier -> type name, for the analyzers
	// lockText maps a normalized lock name to the expression it was last
	// acquired through ("conn.mu" -> "c.mu"), which messages quote.
	lockText map[string]string
}

// lockAcq is one x.Lock()/x.RLock() site.
type lockAcq struct {
	lock string   // normalized name, e.g. "Box.mu"
	held []string // locks already held at this acquisition
	pos  token.Pos
}

// callRef is one resolvable intra-package call site.
type callRef struct {
	callee string   // key into pkgSummary.funcs
	held   []string // locks held at the call
	pos    token.Pos
}

// blockKind classifies a blocking operation.
type blockKind int

const (
	blockSend   blockKind = iota // naked channel send
	blockRecv                    // naked channel receive
	blockSelect                  // select with no default and no ctx.Done or timer case
	blockSleep                   // time.Sleep

	// The two below block for a bounded time or on a peer, not on a missing
	// cancel signal: lockdiscipline reads them, ctxflow's rules do not.
	blockSelectBounded // select with no default but a ctx.Done or timer case
	blockCall          // call through one of the blockingMethods names
)

// blockOp is one blocking site.
type blockOp struct {
	kind blockKind
	pos  token.Pos
	desc string   // expression rendering for the message
	held []string // locks held at the site
}

// typeEnv maps local identifiers to (package-local) type names.
type typeEnv map[string]string

// buildPackage summarises the non-test files of one package directory;
// nil when there are none.
func buildPackage(files []*File) *pkgSummary {
	p := &pkgSummary{
		funcs:      make(map[string]*funcSummary),
		fieldTypes: make(map[string]map[string]string),
		ctxFields:  make(map[string]bool),
	}
	for _, f := range files {
		if !f.Test {
			p.files = append(p.files, f)
			p.collectTypes(f)
		}
	}
	if len(p.files) == 0 {
		return nil
	}
	// Two phases: register every function key first, then scan bodies, so
	// calls to functions declared later (or in another file) resolve.
	for _, f := range p.files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fs := p.newSummary(f, fn)
			p.funcs[fs.key] = fs
			p.all = append(p.all, fs)
		}
	}
	for _, fs := range p.all {
		p.scanBody(fs)
	}
	for key := range p.funcs {
		p.keys = append(p.keys, key)
	}
	sort.Strings(p.keys)
	return p
}

// inScope reports whether the package's directory is in the set.
func (p *pkgSummary) inScope(dirs ...string) bool { return inScope(p.files[0], dirs...) }

// collectTypes records struct field types and context-carrying structs.
func (p *pkgSummary) collectTypes(f *File) {
	for _, decl := range f.AST.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			fields := make(map[string]string)
			for _, fld := range st.Fields.List {
				tn := typeName(fld.Type)
				if isCtxType(fld.Type) {
					p.ctxFields[ts.Name.Name] = true
				}
				if tn == "" {
					continue
				}
				for _, name := range fld.Names {
					fields[name.Name] = tn
				}
			}
			p.fieldTypes[ts.Name.Name] = fields
		}
	}
}

// typeName resolves a type expression to a name: `T`, `*T`, `[]T`,
// `[]*T`, `map[K]T`, `map[K]*T` to the bare T, and another package's
// `pkg.T` to "pkg.T" — which matches no function key, so it resolves no
// call; it tells a receiver's declared type from its spelling. Map and
// slice types resolve to the element type (the interesting name when
// ranging). More exotic types yield "".
func typeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if pkg, ok := v.X.(*ast.Ident); ok {
			return pkg.Name + "." + v.Sel.Name
		}
	case *ast.StarExpr:
		return typeName(v.X)
	case *ast.ArrayType:
		return typeName(v.Elt)
	case *ast.MapType:
		return typeName(v.Value)
	}
	return ""
}

// isCtxType reports whether the type expression is context.Context.
func isCtxType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// newSummary builds one function's signature-level summary (key,
// receiver, parameter type bindings and annotations); the body is
// scanned in scanBody once every key is registered.
func (p *pkgSummary) newSummary(f *File, fn *ast.FuncDecl) *funcSummary {
	fs := &funcSummary{
		file:     f,
		decl:     fn,
		typeEnv:  make(typeEnv),
		lockText: make(map[string]string),
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		fs.recvType = typeName(fn.Recv.List[0].Type)
		if len(fn.Recv.List[0].Names) == 1 {
			fs.recvName = fn.Recv.List[0].Names[0].Name
			if fs.recvType != "" {
				fs.typeEnv[fs.recvName] = fs.recvType
			}
		}
	}
	fs.key = fn.Name.Name
	if fs.recvType != "" {
		fs.key = fs.recvType + "." + fn.Name.Name
	}
	if fn.Type.Params != nil {
		for _, par := range fn.Type.Params.List {
			tn := typeName(par.Type)
			for _, name := range par.Names {
				if isCtxType(par.Type) && fs.ctxParam == "" && name.Name != "_" {
					fs.ctxParam = name.Name
				}
				if tn != "" {
					fs.typeEnv[name.Name] = tn
				}
			}
		}
	}
	return fs
}

// scanBody records the function's lock events, calls, and blocking
// operations (second phase of buildPackage).
func (p *pkgSummary) scanBody(fs *funcSummary) {
	sc := &summaryScan{pkg: p, fs: fs}
	sc.block(fs.decl.Body.List, nil)
}

// resolveType resolves an identifier-rooted selector chain to a type
// name: `p` -> env; `m.pending` -> fieldTypes[env(m)]["pending"].
func (p *pkgSummary) resolveType(env typeEnv, e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return env[v.Name]
	case *ast.ParenExpr:
		return p.resolveType(env, v.X)
	case *ast.StarExpr:
		return p.resolveType(env, v.X)
	case *ast.SelectorExpr:
		base := p.resolveType(env, v.X)
		if base == "" {
			return ""
		}
		return p.fieldTypes[base][v.Sel.Name]
	case *ast.IndexExpr:
		return p.resolveType(env, v.X)
	}
	return ""
}

// lockName normalizes a mutex receiver expression: the base identifier
// is replaced by its resolved type, so `b.mu` inside a Box method and
// `box.mu` elsewhere both become "Box.mu". Unresolvable bases keep
// their textual form.
func (p *pkgSummary) lockName(env typeEnv, e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if base := p.resolveType(env, sel.X); base != "" {
			return base + "." + sel.Sel.Name
		}
	}
	return exprString(e)
}

// resolveCallee maps a call expression to a same-package function key,
// or "" when the callee cannot be identified syntactically.
func (p *pkgSummary) resolveCallee(env typeEnv, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := p.funcs[fun.Name]; ok {
			return fun.Name
		}
	case *ast.SelectorExpr:
		base := p.resolveType(env, fun.X)
		if base == "" {
			return ""
		}
		key := base + "." + fun.Sel.Name
		if _, ok := p.funcs[key]; ok {
			return key
		}
	}
	return ""
}

// summaryScan walks a function body tracking held locks and the local
// type environment, recording acquisitions, resolvable calls, and
// blocking operations into the summary.
type summaryScan struct {
	pkg *pkgSummary
	fs  *funcSummary
}

// block scans statements sequentially, threading held through
// straight-line code and copying it into branches, so the common
// `if cond { mu.Unlock(); return }` early exit does not leak state into
// the fallthrough path.
func (s *summaryScan) block(stmts []ast.Stmt, held []string) []string {
	for _, stmt := range stmts {
		held = s.stmt(stmt, held)
	}
	return held
}

func cloneHeld(held []string) []string {
	return append([]string(nil), held...)
}

func (s *summaryScan) stmt(stmt ast.Stmt, held []string) []string {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if recv, kind := mutexCall(v.X); kind != 0 {
			name := s.pkg.lockName(s.fs.typeEnv, recv)
			if kind < 0 {
				return releaseHeld(held, name)
			}
			s.fs.acquires = append(s.fs.acquires, lockAcq{lock: name, held: cloneHeld(held), pos: v.Pos()})
			s.fs.lockText[name] = exprString(recv)
			return append(held, name)
		}
		s.expr(v.X, held)

	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock to function end, and what other
		// deferred calls block on at return is outside region tracking.

	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			s.expr(rhs, held)
		}
		// Local type bindings: x := T{...} / x := &T{...}.
		if len(v.Lhs) == len(v.Rhs) {
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if tn := litTypeName(v.Rhs[i]); tn != "" {
					s.fs.typeEnv[id.Name] = tn
				}
			}
		}

	case *ast.DeclStmt:
		// var x T bindings.
		if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil {
					continue
				}
				if tn := typeName(vs.Type); tn != "" {
					for _, name := range vs.Names {
						s.fs.typeEnv[name.Name] = tn
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, r := range v.Results {
			s.expr(r, held)
		}

	case *ast.SendStmt:
		s.expr(v.Value, held)
		s.blocked(blockSend, v.Pos(), exprString(v.Chan), held)

	case *ast.IfStmt:
		if v.Init != nil {
			s.stmt(v.Init, held)
		}
		s.expr(v.Cond, held)
		s.block(v.Body.List, cloneHeld(held))
		if v.Else != nil {
			s.stmt(v.Else, cloneHeld(held))
		}

	case *ast.BlockStmt:
		s.block(v.List, cloneHeld(held))

	case *ast.ForStmt:
		inner := cloneHeld(held)
		if v.Init != nil {
			inner = s.stmt(v.Init, inner)
		}
		if v.Cond != nil {
			s.expr(v.Cond, inner)
		}
		s.block(v.Body.List, inner)

	case *ast.RangeStmt:
		s.expr(v.X, held)
		// Range value variables inherit the ranged expression's element
		// type: `for _, p := range m.pending` binds p.
		if v.Tok == token.DEFINE && v.Value != nil {
			if id, ok := v.Value.(*ast.Ident); ok {
				if tn := s.pkg.resolveType(s.fs.typeEnv, v.X); tn != "" {
					s.fs.typeEnv[id.Name] = tn
				}
			}
		}
		s.block(v.Body.List, cloneHeld(held))

	case *ast.SwitchStmt:
		if v.Init != nil {
			s.stmt(v.Init, held)
		}
		if v.Tag != nil {
			s.expr(v.Tag, held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, cloneHeld(held))
			}
		}

	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, cloneHeld(held))
			}
		}

	case *ast.SelectStmt:
		hasDefault := false
		hasDone := false
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
			} else if commIsCtxDone(cc.Comm) || commIsTimeout(cc.Comm) {
				hasDone = true
			}
		}
		if !hasDefault {
			kind := blockSelect
			if hasDone {
				kind = blockSelectBounded
			}
			s.blocked(kind, v.Pos(), "select", held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.block(cc.Body, cloneHeld(held))
			}
		}

	case *ast.GoStmt:
		// The goroutine does not inherit the caller's locks; its body is
		// scanned with a fresh held set so its own blocking ops and
		// acquisitions still enter the summary.
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			s.block(fl.Body.List, nil)
		}

	case *ast.LabeledStmt:
		return s.stmt(v.Stmt, held)
	}
	return held
}

// expr records blocking receives, calls, and nested function literals
// inside an expression.
func (s *summaryScan) expr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			s.block(v.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				s.blocked(blockRecv, v.Pos(), exprString(v.X), held)
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if recv, ok := sel.X.(*ast.Ident); ok && recv.Name == "time" && sel.Sel.Name == "Sleep" {
					if importName(s.fs.file.AST, "time") == "time" {
						s.blocked(blockSleep, v.Pos(), "time.Sleep", held)
					}
				} else if blockingMethods[sel.Sel.Name] && !s.neverBlocks(sel.X) {
					s.blocked(blockCall, v.Pos(), exprString(sel.X)+"."+sel.Sel.Name, held)
				}
			}
			if callee := s.pkg.resolveCallee(s.fs.typeEnv, v); callee != "" {
				s.fs.calls = append(s.fs.calls, callRef{callee: callee, held: cloneHeld(held), pos: v.Pos()})
			}
		}
		return true
	})
}

// blocked records one blocking site with the locks held there.
func (s *summaryScan) blocked(kind blockKind, pos token.Pos, desc string, held []string) {
	s.fs.blocks = append(s.fs.blocks, blockOp{kind: kind, pos: pos, desc: desc, held: cloneHeld(held)})
}

// neverBlocks exempts two receivers of a blockingMethods name: the repo's
// in-memory append buffers, by their `.buf` field convention, and a
// *sync.Cond, whose Wait releases the mutex by contract. The receiver's
// declared type decides what is a Cond; only one that does not resolve
// falls back to its spelling mentioning "cond".
func (s *summaryScan) neverBlocks(recv ast.Expr) bool {
	text := exprString(recv)
	if text == "buf" || strings.HasSuffix(text, ".buf") {
		return true
	}
	if t := s.pkg.resolveType(s.fs.typeEnv, recv); t != "" {
		return t == "sync.Cond"
	}
	return strings.Contains(strings.ToLower(text), "cond")
}

// mutexCall recognises x.Lock()/x.RLock() (+1) and x.Unlock()/x.RUnlock()
// (-1), returning the receiver x.
func mutexCall(e ast.Expr) (ast.Expr, int) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, 0
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return sel.X, 1
	case "Unlock", "RUnlock":
		return sel.X, -1
	}
	return nil, 0
}

// releaseHeld removes the most recent acquisition of name.
func releaseHeld(held []string, name string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == name {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// commRecvExpr extracts the channel expression a select comm statement
// receives from (nil for sends or non-receive comms).
func commRecvExpr(comm ast.Stmt) ast.Expr {
	var recv ast.Expr
	switch v := comm.(type) {
	case *ast.ExprStmt:
		recv = v.X
	case *ast.AssignStmt:
		if len(v.Rhs) == 1 {
			recv = v.Rhs[0]
		}
	}
	ue, ok := recv.(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return nil
	}
	return ue.X
}

// commIsCtxDone reports whether a select comm statement receives from a
// Done() channel (`<-ctx.Done()`, `case <-c.ctx.Done():`).
func commIsCtxDone(comm ast.Stmt) bool {
	call, ok := commRecvExpr(comm).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// commIsTimeout reports whether a select comm statement receives from a
// timer: `<-time.After(...)`, `<-ticker.C`, `<-timer.C`. A timer case
// bounds the select just as ctx.Done does.
func commIsTimeout(comm ast.Stmt) bool {
	switch ch := commRecvExpr(comm).(type) {
	case *ast.CallExpr:
		if sel, ok := ch.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "After" || sel.Sel.Name == "Tick"
		}
	case *ast.SelectorExpr:
		return ch.Sel.Name == "C"
	}
	return false
}

// litTypeName resolves `T{...}` / `&T{...}` composite literals to T.
func litTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return litTypeName(v.X)
		}
	case *ast.CompositeLit:
		if id, ok := v.Type.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// transitiveAcquires computes, for every function, the set of locks it
// may acquire directly or through resolvable calls (fixed point over the
// call graph; cycles converge because sets only grow).
func (p *pkgSummary) transitiveAcquires() map[string]map[string]bool {
	acq := make(map[string]map[string]bool, len(p.funcs))
	for key, fs := range p.funcs {
		set := make(map[string]bool)
		for _, a := range fs.acquires {
			set[a.lock] = true
		}
		acq[key] = set
	}
	for changed := true; changed; {
		changed = false
		for key, fs := range p.funcs {
			set := acq[key]
			for _, c := range fs.calls {
				for lock := range acq[c.callee] {
					if !set[lock] {
						set[lock] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}
