package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// dataPlanePackages are the lock-and-goroutine heavy agg-box packages
// where holding a mutex across a blocking operation stalls every other
// request sharing the lock (and under churn risks deadlock against
// back-pressure). transport is the shared connection layer they all ride
// on, so it is held to the same discipline.
var dataPlanePackages = []string{"core", "wire", "shim", "cluster", "transport"}

// blockingMethods are method names that perform (or can perform) network
// I/O or otherwise block indefinitely. The set is tuned to this repo's
// idioms: wire.VectorWriter batches, transport.Conn/Pool sends and
// net.Conn traffic, dialing, accepting, and WaitGroup waits.
var blockingMethods = map[string]bool{
	"Write": true, "WriteBatch": true, "Flush": true, "Send": true, "SendAll": true,
	"Dial": true, "DialTimeout": true, "Accept": true, "Wait": true,
	"ReadFull": true, "ReadFrom": true, "WriteTo": true, "CopyN": true,
}

// readMethod is handled separately: Read on a reader blocks, but Read is
// also a common non-blocking name (buffers). We flag x.Read(...) only
// when the receiver is not obviously a byte-buffer: conservative enough
// for this repo where readers are wire.Reader or net.Conn.
const readMethod = "Read"

// LockDiscipline flags blocking operations performed while a
// sync.Mutex/RWMutex is held in the data-plane packages.
//
// Lock tracking is syntactic and intra-procedural: x.Lock()/x.RLock()
// starts a held region named after the receiver expression;
// x.Unlock()/x.RUnlock() ends it; defer x.Unlock() holds it to the end
// of the function. Branches are scanned with a copy of the held set, so
// the common `if cond { mu.Unlock(); return }` early-exit does not leak
// state into the fallthrough path. cond.Wait() is exempt (it releases
// the mutex by contract), as is any receiver whose path mentions "cond".
type LockDiscipline struct{}

// Name implements Analyzer.
func (LockDiscipline) Name() string { return "lockdiscipline" }

// Doc implements Analyzer.
func (LockDiscipline) Doc() string {
	return "no blocking I/O, channel operations, or sleeps while a mutex is held in core/wire/shim/cluster/transport"
}

// Check implements Analyzer.
func (LockDiscipline) Check(f *File, report func(pos token.Pos, msg string)) {
	if f.Test || !inScope(f, dataPlanePackages...) {
		return
	}
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		s := &lockScan{report: report}
		s.block(fn.Body.List, newHeldSet())
	}
}

// heldSet tracks the mutexes currently held, in acquisition order.
type heldSet struct {
	names []string
}

func newHeldSet() *heldSet { return &heldSet{} }

func (h *heldSet) clone() *heldSet {
	return &heldSet{names: append([]string(nil), h.names...)}
}

func (h *heldSet) acquire(name string) { h.names = append(h.names, name) }

func (h *heldSet) release(name string) {
	for i := len(h.names) - 1; i >= 0; i-- {
		if h.names[i] == name {
			h.names = append(h.names[:i], h.names[i+1:]...)
			return
		}
	}
}

func (h *heldSet) any() bool { return len(h.names) > 0 }

func (h *heldSet) last() string {
	if len(h.names) == 0 {
		return ""
	}
	return h.names[len(h.names)-1]
}

type lockScan struct {
	report func(token.Pos, string)
}

// block scans a statement list sequentially, threading the held set
// through straight-line code and copying it into nested branches.
func (s *lockScan) block(stmts []ast.Stmt, held *heldSet) {
	for _, stmt := range stmts {
		s.stmt(stmt, held)
	}
}

func (s *lockScan) stmt(stmt ast.Stmt, held *heldSet) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if name, kind := lockCall(v.X); kind != 0 {
			if kind > 0 {
				held.acquire(name)
			} else {
				held.release(name)
			}
			return
		}
		s.expr(v.X, held)

	case *ast.DeferStmt:
		// defer mu.Unlock() right after Lock is the dominant idiom; it
		// keeps the lock to function end, so blocking ops anywhere later
		// in this block are violations. We model it by simply NOT
		// releasing — the lock stays in the held set.
		if _, kind := lockCall(v.Call); kind != 0 {
			return
		}
		// Deferred calls run at return; their blocking behaviour is out
		// of scope for region tracking.

	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			s.expr(rhs, held)
		}

	case *ast.ReturnStmt:
		for _, r := range v.Results {
			s.expr(r, held)
		}

	case *ast.SendStmt:
		if held.any() {
			s.report(v.Pos(), fmt.Sprintf("channel send while holding %s; deliver after unlocking", held.last()))
		}

	case *ast.IfStmt:
		if v.Init != nil {
			s.stmt(v.Init, held)
		}
		s.expr(v.Cond, held)
		s.block(v.Body.List, held.clone())
		if v.Else != nil {
			s.stmt(v.Else, held.clone())
		}

	case *ast.BlockStmt:
		s.block(v.List, held.clone())

	case *ast.ForStmt:
		inner := held.clone()
		if v.Init != nil {
			s.stmt(v.Init, inner)
		}
		if v.Cond != nil {
			s.expr(v.Cond, inner)
		}
		s.block(v.Body.List, inner)

	case *ast.RangeStmt:
		s.expr(v.X, held)
		s.block(v.Body.List, held.clone())

	case *ast.SwitchStmt:
		if v.Init != nil {
			s.stmt(v.Init, held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, held.clone())
			}
		}

	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, held.clone())
			}
		}

	case *ast.SelectStmt:
		// A select with a default case never blocks; without one it does.
		hasDefault := false
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && held.any() {
			s.report(v.Pos(), fmt.Sprintf("blocking select while holding %s", held.last()))
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.block(cc.Body, held.clone())
			}
		}

	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks.
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			s.block(fl.Body.List, newHeldSet())
		}

	case *ast.LabeledStmt:
		s.stmt(v.Stmt, held)
	}
}

// expr flags blocking expressions evaluated while locks are held and
// descends into nested function literals with a fresh held set.
func (s *lockScan) expr(e ast.Expr, held *heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			s.block(v.Body.List, newHeldSet())
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && held.any() {
				s.report(v.Pos(), fmt.Sprintf("channel receive while holding %s", held.last()))
			}
		case *ast.CallExpr:
			if !held.any() {
				return true
			}
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := exprString(sel.X)
			name := sel.Sel.Name
			// time.Sleep under a lock.
			if recv == "time" && name == "Sleep" {
				s.report(v.Pos(), fmt.Sprintf("time.Sleep while holding %s", held.last()))
				return true
			}
			// cond.Wait releases the mutex by contract.
			if strings.Contains(strings.ToLower(recv), "cond") {
				return true
			}
			if blockingMethods[name] || name == readMethod {
				// Skip pure in-memory writers the repo uses (bytes.Buffer,
				// strings.Builder idents typically named buf/sb/b... too
				// broad); instead skip only when the receiver is the
				// "append"-style buf field convention `.buf`.
				if strings.HasSuffix(recv, ".buf") || recv == "buf" {
					return true
				}
				s.report(v.Pos(), fmt.Sprintf("potentially blocking call %s.%s while holding %s", recv, name, held.last()))
			}
		}
		return true
	})
}

// lockCall recognises x.Lock()/x.RLock() (kind=+1) and
// x.Unlock()/x.RUnlock() (kind=-1), returning the receiver path as the
// lock name. kind=0 means not a lock call.
func lockCall(e ast.Expr) (name string, kind int) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", 0
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprString(sel.X), 1
	case "Unlock", "RUnlock":
		return exprString(sel.X), -1
	}
	return "", 0
}
