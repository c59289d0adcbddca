// Command netagg-lint runs the repo-specific static analyzer suite over
// the netagg tree (see internal/lint). It is part of the tier-1 verify
// gate:
//
//	go run ./cmd/netagg-lint ./...
//
// exits 0 when the tree is clean, 1 when any analyzer reports a finding
// that is not suppressed at the site (//lint:ignore <analyzer> <reason>),
// and 2 on usage or parse errors.
//
// Usage:
//
//	netagg-lint [patterns...]
//
// Patterns are package directories relative to the module root; the
// pattern ./... (the default) walks the whole module.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"netagg/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("netagg-lint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "netagg-lint: %v\n", err)
		return 2
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := expand(root, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "netagg-lint: %v\n", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "netagg-lint: no Go files matched %v\n", patterns)
		return 2
	}

	fset := token.NewFileSet()
	var files []*lint.File
	for _, p := range paths {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			rel = p
		}
		f, err := lint.Parse(fset, p, filepath.ToSlash(rel))
		if err != nil {
			fmt.Fprintf(stderr, "netagg-lint: %v\n", err)
			return 2
		}
		files = append(files, f)
	}

	analyzers := lint.All()
	findings := lint.Run(files, analyzers)

	// A suppression that suppresses nothing is itself a finding: a stale
	// //lint:ignore claims an audited violation that no longer exists, so
	// its recorded reason misdocuments the code.
	findings = append(findings, lint.UnusedIgnores(files, analyzers)...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})

	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "netagg-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the directory
// containing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// expand resolves package patterns to a sorted list of Go file paths.
// Supported patterns: "./...", "dir/...", plain directories, and single
// .go files.
func expand(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkGoFiles(root, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(root, strings.TrimSuffix(pat, "/..."))
			if err := walkGoFiles(base, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, ".go"):
			p := pat
			if !filepath.IsAbs(p) {
				p = filepath.Join(root, p)
			}
			if _, err := os.Stat(p); err != nil {
				return nil, err
			}
			add(p)
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(root, dir)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					add(filepath.Join(dir, e.Name()))
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkGoFiles adds every .go file below base, skipping hidden
// directories, testdata and — as the go tool's own ./... does — nested
// modules (benchmark/ has its own go.mod; `make bench-check` covers it).
func walkGoFiles(base string, add func(string)) error {
	return filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == base {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
}
