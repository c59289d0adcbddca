package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// droppedErrorMethods are send/encode/deadline methods on the hot data
// path whose error return must not be silently discarded: a lost wire
// write is a lost partial result, which under recovery semantics means a
// stalled or double-counted request. Explicitly assigning to _ is
// accepted as an audited discard.
var droppedErrorMethods = map[string]bool{
	"Write": true, "WriteBatch": true, "Flush": true,
	"Send": true, "SendAll": true, "SendPartials": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// errcheckWirePackages are the data-plane packages plus the two
// applications built on the shims, whose worker sends (SendPartials) lose
// a partial result just as silently.
var errcheckWirePackages = slices.Concat(dataPlanePackages, []string{"search", "mapred"})

// ErrcheckWire flags statements in core/shim/cluster/transport and
// the search and mapred applications that call a wire-protocol
// send/encode function or an io.Writer write and drop the error result
// (the call is used as a bare statement).
//
// Purely syntactic: a call x.M(...) used as a statement is flagged when M
// is in droppedErrorMethods, except for in-memory writers recognised by
// receiver convention (buf, b.buf, sb, w.buf — bytes.Buffer /
// strings.Builder style receivers whose Write cannot fail).
type ErrcheckWire struct{}

// Name implements Analyzer.
func (ErrcheckWire) Name() string { return "errcheck-wire" }

// Doc implements Analyzer.
func (ErrcheckWire) Doc() string {
	return "error returns of wire sends, writer writes, and connection deadline setters must be handled"
}

// Check is the per-file hook.
func (ErrcheckWire) Check(f *File, report func(pos token.Pos, msg string)) {
	if f.Test || !inScope(f, errcheckWirePackages...) {
		return
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if !droppedErrorMethods[name] {
			return true
		}
		recv := exprString(sel.X)
		if isInMemoryWriter(recv) {
			return true
		}
		report(stmt.Pos(), fmt.Sprintf("result of %s.%s is dropped; handle the error or assign it to _ with a justification", recv, name))
		return true
	})
}

// isInMemoryWriter recognises receiver names that by repo convention are
// bytes.Buffer/strings.Builder values whose Write never fails.
func isInMemoryWriter(recv string) bool {
	last := recv
	if i := strings.LastIndex(recv, "."); i >= 0 {
		last = recv[i+1:]
	}
	switch last {
	case "buf", "sb", "builder", "out":
		return true
	}
	return false
}
