package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dropped is a file with one errcheck-wire finding: a shim send whose
// error is thrown away.
const dropped = `package shim

type client struct{}

func (client) Send(v int) error { return nil }

func fire(c client) {
	c.Send(1)
}
`

// module writes a throwaway module of the given files (path -> source)
// and makes it the working directory, as the driver finds its root by
// walking up to go.mod.
func module(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lintfixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// runLint runs the driver and returns its exit code and stdout.
func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("netagg-lint %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	return code, stdout.String()
}

func TestExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		module(t, map[string]string{"internal/shim/x.go": "package shim\n\nfunc f() {}\n"})
		if code, out := runLint(t, "./..."); code != 0 || out != "" {
			t.Fatalf("exit %d, stdout %q; want 0 and nothing", code, out)
		}
	})
	t.Run("finding", func(t *testing.T) {
		module(t, map[string]string{"internal/shim/x.go": dropped})
		code, out := runLint(t, "./...")
		if code != 1 || !strings.Contains(out, "internal/shim/x.go:8:2: errcheck-wire: result of c.Send is dropped") {
			t.Fatalf("exit %d, stdout %q; want 1 and the dropped send", code, out)
		}
	})
	clean := map[string]string{"internal/shim/x.go": "package shim\n\nfunc f() {}\n"}
	for _, tc := range []struct {
		name  string
		files map[string]string
		args  []string
	}{
		{"unknown flag", clean, []string{"-json", "./..."}},
		{"missing dir", clean, []string{"internal/nowhere"}},
		{"no Go files", map[string]string{"internal/empty/README": "no Go here\n"}, []string{"./..."}},
		{"does not parse", map[string]string{"internal/shim/x.go": "package shim\n\nfunc f( {\n"}, []string{"./..."}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			module(t, tc.files)
			if code, _ := runLint(t, tc.args...); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
		})
	}
}

// TestWalkSkipsTestdataAndNestedModules plants the same finding in a
// testdata directory and in a nested module: ./... reads neither, and
// naming each directly shows the finding is real.
func TestWalkSkipsTestdataAndNestedModules(t *testing.T) {
	module(t, map[string]string{
		"internal/shim/x.go":               "package shim\n\nfunc f() {}\n",
		"internal/shim/testdata/shim/x.go": dropped,
		"benchmark/go.mod":                 "module bench\n\ngo 1.22\n",
		"benchmark/internal/shim/x.go":     dropped,
	})
	if code, out := runLint(t, "./..."); code != 0 || out != "" {
		t.Fatalf("./...: exit %d, stdout %q; want 0 and nothing", code, out)
	}
	for _, pattern := range []string{"internal/shim/testdata/shim", "benchmark/..."} {
		if code, _ := runLint(t, pattern); code != 1 {
			t.Errorf("%s: exit %d, want 1 (the planted finding)", pattern, code)
		}
	}
}
