// Command protogen keeps the protocol matrix in DESIGN.md §17 generated
// from the live table in internal/wire/protocol.go. The document embeds
// the matrix between marker comments:
//
//	<!-- protogen:matrix:begin -->
//	...generated table...
//	<!-- protogen:matrix:end -->
//
// Modes:
//
//	protogen -check    exit 1 if the embedded matrix is stale (CI gate)
//	protogen -write    regenerate the matrix in place
//
// The generator is the source of truth's only renderer: hand-editing
// the embedded table is always wrong, and `make protocol-check` makes
// it fail loudly instead of silently drifting from the Go table the
// protocol tests and the netaggdebug runtime assertions enforce.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"netagg/internal/wire"
)

const (
	beginMarker = "<!-- protogen:matrix:begin -->"
	endMarker   = "<!-- protogen:matrix:end -->"
)

func main() {
	check := flag.Bool("check", false, "fail if the embedded matrix is stale")
	write := flag.Bool("write", false, "regenerate the embedded matrix in place")
	doc := flag.String("doc", "DESIGN.md", "document holding the matrix markers")
	flag.Parse()
	if *check == *write {
		fmt.Fprintln(os.Stderr, "usage: protogen -check | protogen -write [-doc DESIGN.md]")
		os.Exit(2)
	}

	data, err := os.ReadFile(*doc)
	if err != nil {
		fatal(err)
	}
	updated, err := splice(string(data), wire.ProtocolMatrix())
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *doc, err))
	}

	if *check {
		if updated != string(data) {
			fmt.Fprintf(os.Stderr, "protogen: %s protocol matrix is stale; run `go run ./cmd/protogen -write`\n", *doc)
			os.Exit(1)
		}
		fmt.Printf("protogen: %s matrix matches internal/wire/protocol.go\n", *doc)
		return
	}
	if updated == string(data) {
		fmt.Printf("protogen: %s already up to date\n", *doc)
		return
	}
	if err := os.WriteFile(*doc, []byte(updated), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("protogen: wrote %s\n", *doc)
}

// splice replaces the region between the markers with the rendered
// matrix, leaving the markers in place.
func splice(doc, matrix string) (string, error) {
	begin := strings.Index(doc, beginMarker)
	if begin < 0 {
		return "", fmt.Errorf("missing %q marker", beginMarker)
	}
	rest := doc[begin+len(beginMarker):]
	end := strings.Index(rest, endMarker)
	if end < 0 {
		return "", fmt.Errorf("missing %q marker", endMarker)
	}
	if strings.Contains(rest[end+len(endMarker):], beginMarker) {
		return "", fmt.Errorf("multiple %q markers", beginMarker)
	}
	return doc[:begin+len(beginMarker)] + "\n" + strings.TrimSuffix(matrix, "\n") + "\n" +
		doc[begin+len(beginMarker)+end:], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "protogen:", err)
	os.Exit(2)
}
