package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// simPackages are the packages that must reproduce the paper's figures
// bit-for-bit: all time comes from the event clock and all randomness
// from seeded stats.Rand sources.
var simPackages = []string{"simnet", "strategies", "simexp", "stats", "figures", "workload"}

// wallClockFuncs are the time package functions that read or depend on
// the wall clock. Constructors like time.Duration arithmetic are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are math/rand top-level convenience functions backed by
// the process-global, non-reproducible source. Calls on an explicit
// *rand.Rand (rand.New(rand.NewSource(seed))) are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true,
}

// Determinism flags wall-clock reads, global math/rand use, and
// map-iteration-order-dependent output in the simulation packages.
//
// Map iteration is detected with a local, conservative heuristic: an
// identifier ranged over is considered a map if, within the same
// function, it is a parameter declared with a map type, assigned
// make(map[...]...) or a map composite literal, or declared var with a
// map type. The range is only flagged when its body makes the iteration
// order observable — it appends to a slice, prints, or sends on a
// channel — and the appended slice is not subsequently passed to a
// sort.* / slices.Sort* call in the same function (the collect-then-sort
// idiom is the sanctioned way to iterate a map deterministically).
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (Determinism) Doc() string {
	return "simulation packages must derive all time and randomness from the event clock and seeded sources"
}

// Check is the per-file hook.
func (Determinism) Check(f *File, report func(pos token.Pos, msg string)) {
	if f.Test || !inScope(f, simPackages...) {
		return
	}
	timeName := importName(f.AST, "time")
	randName := importName(f.AST, "math/rand")
	randV2Name := importName(f.AST, "math/rand/v2")

	for _, decl := range f.AST.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				checkDeterminismFunc(d, timeName, randName, randV2Name, report)
			}
		case *ast.GenDecl:
			// Package-level var initializers (including func literals
			// inside them) run before main and can read the wall clock
			// just as easily as function bodies.
			if d.Tok != token.IMPORT {
				checkNondeterministicCalls(d, timeName, randName, randV2Name, report)
			}
		}
	}
}

// checkNondeterministicCalls flags wall-clock and global-rand calls
// anywhere under node.
func checkNondeterministicCalls(node ast.Node, timeName, randName, randV2Name string, report func(token.Pos, string)) {
	ast.Inspect(node, func(n ast.Node) bool {
		v, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // Obj != nil: a local variable, not a package
			return true
		}
		switch {
		case timeName != "" && pkg.Name == timeName && wallClockFuncs[sel.Sel.Name]:
			report(v.Pos(), fmt.Sprintf("wall-clock call time.%s in simulation package; derive time from the event clock", sel.Sel.Name))
		case randName != "" && pkg.Name == randName && globalRandFuncs[sel.Sel.Name]:
			report(v.Pos(), fmt.Sprintf("global math/rand call rand.%s in simulation package; use a seeded stats.Rand", sel.Sel.Name))
		case randV2Name != "" && pkg.Name == randV2Name && globalRandFuncs[sel.Sel.Name]:
			report(v.Pos(), fmt.Sprintf("global math/rand/v2 call rand.%s in simulation package; use a seeded stats.Rand", sel.Sel.Name))
		}
		return true
	})
}

func checkDeterminismFunc(fn *ast.FuncDecl, timeName, randName, randV2Name string, report func(token.Pos, string)) {
	maps := collectMapIdents(fn)
	sorted := collectSortedIdents(fn)

	checkNondeterministicCalls(fn.Body, timeName, randName, randV2Name, report)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			id, ok := v.X.(*ast.Ident)
			if !ok || !maps[id.Name] {
				return true
			}
			if target, observable := orderObservable(v.Body); observable && !sorted[target] {
				report(v.Pos(), fmt.Sprintf("iteration over map %q produces order-dependent output; collect keys and sort, or use an ordered slice", id.Name))
			}
		}
		return true
	})
}

// collectMapIdents finds identifiers known (syntactically) to be maps in
// the function: map-typed parameters, var declarations, and make/composite
// literal assignments.
func collectMapIdents(fn *ast.FuncDecl) map[string]bool {
	maps := make(map[string]bool)
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, name := range field.Names {
					maps[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(v.Rhs) {
					continue
				}
				if isMapExpr(v.Rhs[i]) {
					maps[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if _, isMap := vs.Type.(*ast.MapType); isMap {
					for _, name := range vs.Names {
						maps[name.Name] = true
					}
				}
			}
		}
		return true
	})
	return maps
}

// isMapExpr recognises make(map[...]...) and map composite literals.
func isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			_, isMap := v.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := v.Type.(*ast.MapType)
		return isMap
	}
	return false
}

// orderObservable reports whether the loop body makes iteration order
// visible, and if the mechanism is an append, the name of the target
// slice (so the caller can exempt collect-then-sort).
func orderObservable(body *ast.BlockStmt) (appendTarget string, observable bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			observable = true
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					observable = true
					if len(v.Args) > 0 {
						if id, ok := v.Args[0].(*ast.Ident); ok {
							appendTarget = id.Name
						}
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "fmt" {
					observable = true
				}
			}
		}
		return true
	})
	return appendTarget, observable
}

// collectSortedIdents finds identifiers passed to sort.* or slices.Sort*
// anywhere in the function.
func collectSortedIdents(fn *ast.FuncDecl) map[string]bool {
	sorted := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				sorted[id.Name] = true
			}
		}
		return true
	})
	return sorted
}
