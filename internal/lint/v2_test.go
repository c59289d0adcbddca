package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

// runMulti parses several fixtures into one corpus and returns the named
// analyzer's findings (multi-file cases: package-scoped call graphs,
// cross-package enum switches).
func runMulti(t *testing.T, files map[string]string, name string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*File
	// Stable order: findings sort by file anyway, but parse order decides
	// package grouping order.
	for _, path := range sortedKeys(files) {
		f, err := ParseSource(fset, path, []byte(files[path]))
		if err != nil {
			t.Fatalf("parse fixture %s: %v", path, err)
		}
		parsed = append(parsed, f)
	}
	var analyzers []Analyzer
	for _, a := range All() {
		if a.Name() == name {
			analyzers = append(analyzers, a)
		}
	}
	return Run(parsed, analyzers)
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestLockOrderDirectCycle(t *testing.T) {
	got := runOn(t, "internal/core/x.go", `package core
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
func (a *A) one() {
	a.mu.Lock()
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
`, "lockorder")
	expectMessages(t, got,
		"lock order cycle: B.mu acquired while holding A.mu",
		"lock order cycle: A.mu acquired while holding B.mu")
}

func TestLockOrderInterprocedural(t *testing.T) {
	// Neither function acquires both locks directly: the cycle only
	// exists across the call graph.
	got := runOn(t, "internal/shim/x.go", `package shim
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
func (a *A) outer() {
	a.mu.Lock()
	a.b.poke()
	a.mu.Unlock()
}
func (b *B) poke() {
	b.mu.Lock()
	b.mu.Unlock()
}
func (b *B) rev() {
	b.mu.Lock()
	b.a.grab()
	b.mu.Unlock()
}
func (a *A) grab() {
	a.mu.Lock()
	a.mu.Unlock()
}
`, "lockorder")
	expectMessages(t, got,
		"lock order cycle: B.mu acquired while holding A.mu",
		"lock order cycle: A.mu acquired while holding B.mu")
}

func TestLockOrderAcyclicClean(t *testing.T) {
	got := runOn(t, "internal/core/x.go", `package core
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct{ mu sync.Mutex }
func (a *A) one() {
	a.mu.Lock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
func (a *A) alsoOne() {
	a.mu.Lock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
`, "lockorder")
	expectMessages(t, got)
}

func TestLockOrderAllowDirective(t *testing.T) {
	got := runOn(t, "internal/core/x.go", `package core
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
func (a *A) one() {
	a.mu.Lock()
	//lint:ignore lockorder B->A runs only during shutdown, when no A->B path is live
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}
func (b *B) two() {
	b.mu.Lock()
	b.a.mu.Lock() //lint:ignore lockorder shutdown-only path, A->B never concurrent
	b.a.mu.Unlock()
	b.mu.Unlock()
}
`, "lockorder")
	expectMessages(t, got)
}

func TestLockOrderOutOfScopePackage(t *testing.T) {
	got := runOn(t, "internal/simnet/x.go", `package simnet
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
type B struct {
	mu sync.Mutex
	a  *A
}
func (a *A) one() { a.mu.Lock(); a.b.mu.Lock(); a.b.mu.Unlock(); a.mu.Unlock() }
func (b *B) two() { b.mu.Lock(); b.a.mu.Lock(); b.a.mu.Unlock(); b.mu.Unlock() }
`, "lockorder")
	expectMessages(t, got)
}

func TestCtxFlowBackground(t *testing.T) {
	got := runOn(t, "internal/search/x.go", `package search
import "context"
func start() context.Context { return context.Background() }
func todo() context.Context { return context.TODO() }
`, "ctxflow")
	expectMessages(t, got,
		"context.Background() severs the cancellation chain",
		"context.TODO() severs the cancellation chain")
}

func TestCtxFlowNilFallbackIdiom(t *testing.T) {
	got := runOn(t, "internal/search/x.go", `package search
import "context"
func start(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}
`, "ctxflow")
	expectMessages(t, got)
}

func TestCtxFlowBackgroundAllowedInMain(t *testing.T) {
	got := runOn(t, "cmd/aggbox/x.go", `package main
import "context"
func run() context.Context { return context.Background() }
`, "ctxflow")
	expectMessages(t, got)
}

func TestCtxFlowNakedSendWithCtx(t *testing.T) {
	got := runOn(t, "internal/transport/x.go", `package transport
import "context"
func push(ctx context.Context, c chan int) {
	<-ctx.Done()
	c <- 1
}
`, "ctxflow")
	expectMessages(t, got, "channel send on c cannot be cancelled")
}

func TestCtxFlowNakedSendWithoutCtxNotFlagged(t *testing.T) {
	got := runOn(t, "internal/transport/x.go", `package transport
func push(c chan int) { c <- 1 }
`, "ctxflow")
	expectMessages(t, got)
}

func TestCtxFlowRecvViaReceiverCtxField(t *testing.T) {
	got := runOn(t, "internal/transport/x.go", `package transport
import "context"
type Conn struct {
	ctx context.Context
	in  chan int
}
func (c *Conn) next() int { return <-c.in }
`, "ctxflow")
	expectMessages(t, got, "channel receive from c.in cannot be cancelled")
}

func TestCtxFlowSelectNeedsEscapeHatch(t *testing.T) {
	got := runOn(t, "internal/cluster/x.go", `package cluster
func wait(a, b chan int) {
	select {
	case <-a:
	case <-b:
	}
}
`, "ctxflow")
	expectMessages(t, got, "select can block forever")
}

func TestCtxFlowSelectWithDoneOrTimerOK(t *testing.T) {
	got := runOn(t, "internal/cluster/x.go", `package cluster
import (
	"context"
	"time"
)
func wait(ctx context.Context, a chan int) {
	select {
	case <-a:
	case <-ctx.Done():
	}
}
func waitBounded(a chan int) {
	select {
	case <-a:
	case <-time.After(time.Second):
	}
}
func poll(a chan int) {
	select {
	case <-a:
	default:
	}
}
`, "ctxflow")
	expectMessages(t, got)
}

func TestCtxFlowSleepAndBackoffExemption(t *testing.T) {
	got := runOn(t, "internal/cluster/x.go", `package cluster
import (
	"context"
	"time"
)
func probe(ctx context.Context) {
	_ = ctx
	time.Sleep(time.Second)
}
func retryBackoff(ctx context.Context) {
	_ = ctx
	time.Sleep(time.Second)
}
`, "ctxflow")
	expectMessages(t, got, "time.Sleep ignores cancellation")
}

// The summary's two bounded kinds — a blockingMethods call, a select with
// a Done case — are lockdiscipline's: no ctxflow rule may read them.
func TestCtxFlowIgnoresBoundedBlockKinds(t *testing.T) {
	got := runOn(t, "internal/transport/x.go", `package transport
import "context"
type conn struct{ ctx context.Context }
func (conn) Send(v int) error { return nil }
func (c conn) push() error { return c.Send(1) }
func relay(ctx context.Context, c conn) error { return c.Send(2) }
func wait(ctx context.Context, stop interface{ Done() <-chan struct{} }, a chan int) {
	select {
	case <-a:
	case <-stop.Done():
	}
}
`, "ctxflow")
	expectMessages(t, got)
}

func TestExhaustiveMissingMembers(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
type Kind uint8
const (
	K1 Kind = iota
	K2
	K3
)
`,
		"internal/shim/s.go": `package shim
import "netagg/internal/wire"
func handle(k wire.Kind) {
	switch k {
	case wire.K1:
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got, "switch on wire.Kind is not exhaustive: missing K2, K3")
}

func TestExhaustiveSilentDefault(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
type Kind uint8
const (
	K1 Kind = iota
	K2
)
func handle(k Kind) {
	switch k {
	case K1:
	default:
		return
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got, "silent default in switch over wire.Kind drops K2")
}

func TestExhaustiveLoudDefaultOK(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
import "fmt"
type Kind uint8
const (
	K1 Kind = iota
	K2
)
func name(k Kind) string {
	switch k {
	case K1:
		return "one"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}
func handle(k Kind) error {
	switch k {
	case K1:
	default:
		panic("unhandled kind")
	}
	return nil
}
func Unexpected(k Kind) {}
func dispatch(k Kind) {
	switch k {
	case K1:
	default:
		Unexpected(k)
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got)
}

func TestExhaustiveFullCoverageOK(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
type Kind uint8
const (
	K1 Kind = iota
	K2
)
func handle(k Kind) {
	switch k {
	case K1:
	case K2:
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got)
}

func TestExhaustiveBitmaskExcluded(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
type Flag uint8
const (
	F1 Flag = 1 << iota
	F2
	F3
)
func handle(f Flag) {
	switch f {
	case F1:
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got)
}

func TestExhaustiveSuppression(t *testing.T) {
	got := runMulti(t, map[string]string{
		"internal/wire/w.go": `package wire
type Kind uint8
const (
	K1 Kind = iota
	K2
)
func handle(k Kind) {
	//lint:ignore exhaustive K2 handled by the caller's pre-filter
	switch k {
	case K1:
	}
}
`,
	}, "exhaustive")
	expectMessages(t, got)
}

func TestPackageAnalyzerGroupsByDir(t *testing.T) {
	// Two files in the same directory must be analyzed as one package:
	// the cycle spans the two files.
	got := runMulti(t, map[string]string{
		"internal/core/a.go": `package core
import "sync"
type A struct {
	mu sync.Mutex
	b  *B
}
func (a *A) one() { a.mu.Lock(); a.b.mu.Lock(); a.b.mu.Unlock(); a.mu.Unlock() }
`,
		"internal/core/b.go": `package core
import "sync"
type B struct {
	mu sync.Mutex
	a  *A
}
func (b *B) two() { b.mu.Lock(); b.a.mu.Lock(); b.a.mu.Unlock(); b.mu.Unlock() }
`,
	}, "lockorder")
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (cycle across files): %v", len(got), got)
	}
	for _, f := range got {
		if f.File != "internal/core/a.go" && f.File != "internal/core/b.go" {
			t.Fatalf("finding attributed to wrong file: %v", f)
		}
	}
}

// summarySpy is a PackageAnalyzer that only records what Run hands it.
type summarySpy struct{ seen *[]*pkgSummary }

func (summarySpy) Name() string { return "spy" }
func (summarySpy) Doc() string  { return "records the summaries Run hands out" }
func (s summarySpy) CheckPackage(p *pkgSummary, _ func(token.Pos, string)) {
	*s.seen = append(*s.seen, p)
}

// TestRunSharesOneSummaryPerPackage proves the substrate is built once
// per package per Run: every PackageAnalyzer in the suite is handed the
// identical summary for a directory, test files never enter it, and a
// directory of only test files has none.
func TestRunSharesOneSummaryPerPackage(t *testing.T) {
	fset := token.NewFileSet()
	var files []*File
	for _, path := range []string{
		"internal/core/a.go", "internal/core/b.go", "internal/core/a_test.go",
		"internal/shim/x.go", "internal/wire/only_test.go",
	} {
		pkg := filepath.Base(filepath.Dir(path))
		f, err := ParseSource(fset, path, []byte("package "+pkg+"\nfunc f() {}\n"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var first, second []*pkgSummary
	Run(files, append(All(), summarySpy{&first}, summarySpy{&second}))
	if len(first) != 2 || len(first[0].files) != 2 || len(first[1].files) != 1 {
		t.Fatalf("summaries = %d, want core (2 non-test files) and shim (1)", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("package %d: the two analyzers were handed different summaries", i)
		}
	}
}
