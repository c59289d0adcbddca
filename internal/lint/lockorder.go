package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// LockOrder is the interprocedural deadlock analyzer. For each data-plane
// package it builds the call-graph approximation from pkggraph.go and a
// lock-ordering graph: an edge L -> M means some execution path acquires
// mutex M (directly, or transitively through a resolvable same-package
// call) while already holding L. A cycle in that graph is a potential
// deadlock — two goroutines can interleave the two orders and wait on
// each other forever — and every edge participating in a cycle is
// reported at its acquisition site.
//
// Locks are named by their owning struct type ("Box.mu", "Pending.mu"),
// so the same field reached through different receivers is one node.
//
// False-negative limits: calls that cannot be resolved syntactically
// (interface methods, cross-package calls, function values) contribute
// no edges, and lock acquisitions hidden behind them are invisible.
// Cycles spanning packages are likewise invisible because the graph is
// per-package.
//
// An audited cycle takes //lint:ignore lockorder <reason> at each site
// it is reported at.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "mutex acquisition order must be acyclic across each data-plane package's call graph"
}

// lockEdge is one "to acquired while holding from" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// CheckPackage implements PackageAnalyzer.
func (LockOrder) CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string)) {
	if !p.inScope(dataPlanePackages...) {
		return
	}
	acq := p.transitiveAcquires()

	// Collect edges deterministically: functions in sorted key order, so
	// the position recorded for a repeated edge is stable.
	edges := make(map[string]map[string]token.Pos)
	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = make(map[string]token.Pos)
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = pos
		}
	}
	for _, key := range p.keys {
		fs := p.funcs[key]
		for _, a := range fs.acquires {
			for _, h := range a.held {
				addEdge(h, a.lock, a.pos)
			}
		}
		for _, c := range fs.calls {
			if len(c.held) == 0 {
				continue
			}
			callee := make([]string, 0, len(acq[c.callee]))
			for lock := range acq[c.callee] {
				callee = append(callee, lock)
			}
			sort.Strings(callee)
			for _, to := range callee {
				for _, h := range c.held {
					addEdge(h, to, c.pos)
				}
			}
		}
	}

	// Every edge whose reverse direction is reachable is part of a cycle.
	froms := make([]string, 0, len(edges))
	for from := range edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(edges[from]))
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !reachable(edges, to, from) {
				continue
			}
			report(edges[from][to], fmt.Sprintf(
				"lock order cycle: %s acquired while holding %s, but elsewhere %s is acquired while holding %s (potential deadlock); pick one canonical order or audit it with //lint:ignore lockorder <reason> at each site of the cycle",
				to, from, from, to))
		}
	}
}

// reachable reports whether dst is reachable from src over the edges.
func reachable(edges map[string]map[string]token.Pos, src, dst string) bool {
	seen := map[string]bool{src: true}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			return true
		}
		for next := range edges[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}
