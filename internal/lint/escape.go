package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file implements the //netagg:hotpath escape gate. The repo's
// performance claims (0 allocs/op allocator waterfill, 6.4ns obs
// counters, allocation-free transport writes) are benchmark results —
// easy to regress silently, because benchmarks only fail when someone
// runs them and reads the numbers. The gate turns the property into a
// machine-checked invariant: a function whose doc comment carries
//
//	//netagg:hotpath
//
// must produce no heap allocations according to the compiler's own
// escape analysis. `netagg-lint -escape ./...` runs
// `go build -gcflags=-m`, parses the "escapes to heap" / "moved to
// heap" diagnostics, and fails if any land inside an annotated
// function's line range. Go 1.21+ replays cached compile diagnostics,
// so the gate is warm-cache cheap.
//
// Inlining caveat: diagnostics are attributed to the line of the source
// that allocates, so an allocation introduced by a callee only charges
// the hot function if the compiler inlines it there. Allocations hidden
// behind non-inlined calls are a false-negative limit, documented in
// DESIGN.md §12.

// HotFunc is one //netagg:hotpath-annotated function and its source
// line range.
type HotFunc struct {
	File  string // path as parsed (repo-relative in the driver)
	Name  string // "Type.Method" or "Func"
	Start int    // first line of the declaration
	End   int    // last line of the body
}

// HotFuncs collects annotated functions from the parsed files, sorted
// by file then start line.
func HotFuncs(files []*File) []HotFunc {
	var out []HotFunc
	for _, f := range files {
		if f.Test {
			// Test files are not compiled by `go build`, so an annotation
			// there could never be checked.
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || docDirectives(fn, "hotpath") == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				if tn := typeName(fn.Recv.List[0].Type); tn != "" {
					name = tn + "." + name
				}
			}
			out = append(out, HotFunc{
				File:  filepath.Clean(f.Path),
				Name:  name,
				Start: f.Fset.Position(fn.Pos()).Line,
				End:   f.Fset.Position(fn.Body.End()).Line,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// EscapeDiag is one parsed heap-allocation diagnostic.
type EscapeDiag struct {
	File string
	Line int
	Col  int
	Msg  string
}

// ParseEscapeOutput extracts heap-allocation diagnostics from
// `go build -gcflags=-m` output. Only lines reporting an actual
// allocation count: "escapes to heap" and "moved to heap". Inlining
// notes, "does not escape", and "leaking param" (which describes the
// callee's contract, not an allocation at this site) are skipped.
func ParseEscapeOutput(out string) []EscapeDiag {
	var diags []EscapeDiag
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		msgIsAlloc := (strings.Contains(line, "escapes to heap") && !strings.Contains(line, "does not escape")) ||
			strings.Contains(line, "moved to heap")
		if !msgIsAlloc {
			continue
		}
		// Format: path/file.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 {
			continue
		}
		lineNo, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		col, _ := strconv.Atoi(parts[2])
		diags = append(diags, EscapeDiag{
			File: filepath.Clean(parts[0]),
			Line: lineNo,
			Col:  col,
			Msg:  strings.TrimSpace(parts[3]),
		})
	}
	return diags
}

// EscapeFindings matches diagnostics against the annotated functions'
// line ranges and renders gate failures. Findings are ordered by file,
// line.
func EscapeFindings(hot []HotFunc, diags []EscapeDiag) []Finding {
	var out []Finding
	for _, d := range diags {
		for _, h := range hot {
			if d.File != h.File || d.Line < h.Start || d.Line > h.End {
				continue
			}
			out = append(out, Finding{
				Analyzer: "escape",
				File:     d.File,
				Line:     d.Line,
				Col:      d.Col,
				Message:  fmt.Sprintf("hotpath function %s allocates: %s", h.Name, d.Msg),
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}
