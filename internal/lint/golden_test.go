package lint

import (
	"flag"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update rewrites the golden expected.txt files instead of comparing:
//
//	go test ./internal/lint -run Golden -update
var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// TestGolden runs each AST analyzer over its positive and negative
// fixture corpus under testdata/golden/<analyzer>/{pos,neg} and
// compares the rendered findings byte-for-byte with expected.txt.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "golden")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			continue
		}
		var analyzer Analyzer
		for _, a := range All() {
			if a.Name() == name {
				analyzer = a
			}
		}
		if analyzer == nil {
			t.Errorf("golden dir %q names no registered analyzer", name)
			continue
		}
		for _, variant := range []string{"pos", "neg"} {
			dir := filepath.Join(root, name, variant)
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("%s: missing %s fixture dir", name, variant)
				continue
			}
			t.Run(name+"/"+variant, func(t *testing.T) {
				got := runGoldenDir(t, dir, analyzer)
				checkGolden(t, filepath.Join(dir, "expected.txt"), got)
				if variant == "pos" && got == "" {
					t.Errorf("positive fixture produced no findings: the analyzer does not fire")
				}
				if variant == "neg" && got != "" {
					t.Errorf("negative fixture produced findings:\n%s", got)
				}
			})
		}
	}
}

// runGoldenDir parses every .go file under dir as one corpus and
// renders the analyzer's findings, one per line.
func runGoldenDir(t *testing.T, dir string, analyzer Analyzer) string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatalf("no fixture files under %s", dir)
	}
	fset := token.NewFileSet()
	var files []*File
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseSource(fset, filepath.ToSlash(p), src)
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		files = append(files, f)
	}
	findings := Run(files, []Analyzer{analyzer})
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// checkGolden compares got with the expected file, rewriting it under
// -update.
func checkGolden(t *testing.T, expPath, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(expPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expPath)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", expPath, err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", expPath, got, want)
	}
}
