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
	//lint:ignore bufown audited hand-off
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

// TestBufownAllowSuppressesExactlyOneAndUnusedFires proves the same life
// cycle for bufown's package-scoped findings: an ignore over a real leak
// suppresses exactly that diagnostic; one over clean code is stale.
func TestBufownAllowSuppressesExactlyOneAndUnusedFires(t *testing.T) {
	bufown := []Analyzer{Bufown{}}
	used := parseFixture(t, "internal/core/x.go", bufownHeader+`
func f(n int, err error) error {
	b := bufpool.Get(n)
	if err != nil {
		//lint:ignore bufown the caller parks the ref, audited 2026-08
		return err
	}
	return nil
}
`)
	if got := Run([]*File{used}, bufown); len(got) != 1 || got[0].Line != 10 {
		t.Fatalf("got %v, want exactly the unsuppressed leak at the final return (line 10)", got)
	}
	if unused := UnusedIgnores([]*File{used}, bufown); len(unused) != 0 {
		t.Fatalf("used directive reported as unused: %v", unused)
	}

	stale := parseFixture(t, "internal/core/x.go", bufownHeader+`
func f(n int) {
	b := bufpool.Get(n)
	//lint:ignore bufown nothing leaks here any more
	b.Release()
}
`)
	if got := Run([]*File{stale}, bufown); len(got) != 0 {
		t.Fatalf("clean fixture produced findings: %v", got)
	}
	unused := UnusedIgnores([]*File{stale}, bufown)
	if len(unused) != 1 || unused[0].Line != 6 || !strings.Contains(unused[0].Message, "bufown suppresses nothing") {
		t.Fatalf("unused = %v, want one stale bufown ignore at line 6 (the comment)", unused)
	}
}
