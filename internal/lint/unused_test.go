package lint

import (
	"go/token"
	"strings"
	"testing"
)

// parseFixture parses one in-memory fixture for direct Run/UnusedIgnores
// use (runOn hides the *File, which unused tracking needs back).
func parseFixture(t *testing.T, displayPath, src string) *File {
	t.Helper()
	f, err := ParseSource(token.NewFileSet(), displayPath, []byte(src))
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return f
}

// TestIgnoreSuppressesExactlyOneAndUnusedFires proves the //lint:ignore
// life cycle: a directive over a real finding suppresses exactly that
// one diagnostic and is not reported as unused; the same directive over
// a clean line suppresses nothing and is.
func TestIgnoreSuppressesExactlyOneAndUnusedFires(t *testing.T) {
	used := parseFixture(t, "internal/shim/x.go", `package shim
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) {
	//lint:ignore errcheck-wire best-effort, audited 2026-08
	c.Send(1)
	c.Send(2)
}
`)
	findings := Run([]*File{used}, All())
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "c.Send is dropped") {
		t.Fatalf("findings = %v, want exactly the unsuppressed c.Send(2)", findings)
	}
	if unused := UnusedIgnores([]*File{used}, All()); len(unused) != 0 {
		t.Fatalf("used directive reported as unused: %v", unused)
	}

	stale := parseFixture(t, "internal/shim/x.go", `package shim
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) {
	//lint:ignore errcheck-wire this call cannot fail (stale claim)
	_ = c.Send(1)
}
`)
	if findings := Run([]*File{stale}, All()); len(findings) != 0 {
		t.Fatalf("clean fixture produced findings: %v", findings)
	}
	unused := UnusedIgnores([]*File{stale}, All())
	if len(unused) != 1 {
		t.Fatalf("unused = %v, want exactly one stale-directive report", unused)
	}
	if unused[0].Analyzer != "unusedignore" || unused[0].Line != 5 {
		t.Errorf("unused report = %+v, want unusedignore at line 5", unused[0])
	}
	if !strings.Contains(unused[0].Message, "errcheck-wire") {
		t.Errorf("message %q does not name the ignored analyzer", unused[0].Message)
	}

	// A directive naming an analyzer outside the run's suite is not
	// reported: it may be load-bearing in a fuller run.
	scoped := parseFixture(t, "internal/shim/x.go", `package shim
func f() {
	//lint:ignore lockorder audited shutdown-only order
	_ = 1
}
`)
	var subset []Analyzer
	for _, a := range All() {
		if a.Name() == "errcheck-wire" {
			subset = append(subset, a)
		}
	}
	Run([]*File{scoped}, subset)
	if unused := UnusedIgnores([]*File{scoped}, subset); len(unused) != 0 {
		t.Fatalf("out-of-suite directive reported: %v", unused)
	}
}

// TestLockOrderIgnoreSuppressesExactlyOneAndUnusedFires proves the same
// life cycle for a PackageAnalyzer, whose findings are reported from the
// package summary rather than from one file's walk: an ignore over one
// site of a lock-order cycle suppresses exactly that diagnostic, and one
// over an acyclic acquisition is stale.
func TestLockOrderIgnoreSuppressesExactlyOneAndUnusedFires(t *testing.T) {
	lockorder := []Analyzer{LockOrder{}}
	const types = `package core
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
`
	used := parseFixture(t, "internal/core/x.go", types+`func (a *A) one() {
	a.mu.Lock()
	//lint:ignore lockorder B->A runs only during shutdown, audited 2026-08
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
func (b *B) two() {
	b.mu.Lock()
	b.a.mu.Lock()
	b.a.mu.Unlock()
	b.mu.Unlock()
}
`)
	if got := Run([]*File{used}, lockorder); len(got) != 1 || got[0].Line != 20 {
		t.Fatalf("got %v, want exactly the unsuppressed cycle site in two (line 20)", got)
	}
	if unused := UnusedIgnores([]*File{used}, lockorder); len(unused) != 0 {
		t.Fatalf("used directive reported as unused: %v", unused)
	}

	stale := parseFixture(t, "internal/core/x.go", types+`func (a *A) one() {
	a.mu.Lock()
	//lint:ignore lockorder no cycle here any more
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
`)
	if got := Run([]*File{stale}, lockorder); len(got) != 0 {
		t.Fatalf("acyclic fixture produced findings: %v", got)
	}
	unused := UnusedIgnores([]*File{stale}, lockorder)
	if len(unused) != 1 || unused[0].Line != 13 || !strings.Contains(unused[0].Message, "lockorder suppresses nothing") {
		t.Fatalf("unused = %v, want one stale lockorder ignore at line 13 (the comment)", unused)
	}
}
