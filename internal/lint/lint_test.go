package lint

import (
	"go/token"
	"strings"
	"testing"
)

// runOn parses one fixture at displayPath and returns the findings of the
// named analyzer (all analyzers when name == "").
func runOn(t *testing.T, displayPath, src, name string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := ParseSource(fset, displayPath, []byte(src))
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	var analyzers []Analyzer
	for _, a := range All() {
		if name == "" || a.Name() == name {
			analyzers = append(analyzers, a)
		}
	}
	return Run([]*File{f}, analyzers)
}

// expectMessages asserts findings count and that each expected substring
// appears in the corresponding finding message.
func expectMessages(t *testing.T, got []Finding, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(want), got)
	}
	for i, w := range want {
		if !strings.Contains(got[i].Message, w) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "wall clock flagged in sim package",
			path: "internal/simnet/x.go",
			src: `package simnet
import "time"
func now() time.Time { return time.Now() }
func since(t0 time.Time) time.Duration { return time.Since(t0) }
`,
			want: []string{"time.Now", "time.Since"},
		},
		{
			name: "wall clock flagged in package-level initializer",
			path: "internal/simnet/x.go",
			src: `package simnet
import "time"
var started = time.Now()
var stamp = func() int64 { return time.Now().UnixNano() }
`,
			want: []string{"time.Now", "time.Now"},
		},
		{
			name: "global rand flagged, seeded Rand allowed",
			path: "internal/strategies/x.go",
			src: `package strategies
import "math/rand"
func pick(n int) int { return rand.Intn(n) }
func seeded(n int) int {
	r := rand.New(rand.NewSource(7))
	return r.Intn(n)
}
`,
			want: []string{"rand.Intn"},
		},
		{
			name: "renamed math/rand import still flagged",
			path: "internal/stats/x.go",
			src: `package stats
import mrand "math/rand"
func pick(n int) int { return mrand.Intn(n) }
`,
			want: []string{"rand.Intn"},
		},
		{
			name: "non-sim package not in scope",
			path: "internal/core/x.go",
			src: `package core
import "time"
func now() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "test files not in scope",
			path: "internal/simnet/x_test.go",
			src: `package simnet
import "time"
func now() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "map range with order-dependent append flagged",
			path: "internal/figures/x.go",
			src: `package figures
func rows(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
			want: []string{`iteration over map "m"`},
		},
		{
			name: "collect-then-sort idiom allowed",
			path: "internal/figures/x.go",
			src: `package figures
import "sort"
func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
`,
			want: nil,
		},
		{
			name: "map range without observable output allowed",
			path: "internal/simexp/x.go",
			src: `package simexp
func total(m map[string]float64) float64 {
	// Summation order affects float rounding, but the analyzer only
	// flags order-observable emission; totals are the caller's business.
	var sum float64
	max := 0.0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	_ = sum
	return max
}
`,
			want: nil,
		},
		{
			name: "locally made map flagged",
			path: "internal/workload/x.go",
			src: `package workload
import "fmt"
func dump(n int) {
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		seen[i] = true
	}
	for k := range seen {
		fmt.Println(k)
	}
}
`,
			want: []string{`iteration over map "seen"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectMessages(t, runOn(t, tc.path, tc.src, "determinism"), tc.want...)
		})
	}
}

func TestLockDiscipline(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "write while holding mutex flagged",
			path: "internal/core/x.go",
			src: `package core
import "sync"
type conn struct{ mu sync.Mutex; w writer }
type writer struct{}
// Write implements io.Writer.
func (writer) Write(p []byte) (int, error) { return len(p), nil }
func (c *conn) send(p []byte) {
	c.mu.Lock()
	c.w.Write(p)
	c.mu.Unlock()
}
`,
			want: []string{"c.w.Write is dropped", "c.w.Write while holding c.mu"},
		},
		{
			name: "write after unlock allowed",
			path: "internal/core/x.go",
			src: `package core
import "sync"
func send(mu *sync.Mutex, w interface{ Flush() error }) error {
	mu.Lock()
	mu.Unlock()
	return w.Flush()
}
`,
			want: nil,
		},
		{
			name: "defer unlock holds to function end",
			path: "internal/shim/x.go",
			src: `package shim
import "sync"
func send(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	ch <- 1
}
`,
			want: []string{"channel send while holding mu"},
		},
		{
			name: "early-exit unlock in branch does not leak into fallthrough",
			path: "internal/transport/x.go",
			src: `package transport
import "sync"
func send(mu *sync.Mutex, closed bool, ch chan int) {
	mu.Lock()
	if closed {
		mu.Unlock()
		return
	}
	mu.Unlock()
	ch <- 1
}
`,
			want: nil,
		},
		{
			name: "cond wait exempt",
			path: "internal/core/x.go",
			src: `package core
import "sync"
type q struct{ mu sync.Mutex; cond *sync.Cond; n int }
func (q *q) take() {
	q.mu.Lock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
	q.mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "typed sync.Cond field not named cond exempt",
			path: "internal/transport/x.go",
			src: `package transport
import "sync"
type sendq struct{ mu sync.Mutex; notFull *sync.Cond; n int }
func (q *sendq) admit() {
	q.mu.Lock()
	for q.n > 0 {
		q.notFull.Wait()
	}
	q.mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "WaitGroup.Wait under lock flagged whatever its name",
			path: "internal/core/x.go",
			src: `package core
import "sync"
type box struct{ mu sync.Mutex; wg, condWG sync.WaitGroup }
func (b *box) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait()
	b.condWG.Wait()
}
`,
			want: []string{"b.wg.Wait while holding b.mu", "b.condWG.Wait while holding b.mu"},
		},
		{
			name: "unresolved receiver keeps the cond spelling rule",
			path: "internal/core/x.go",
			src: `package core
import "sync"
func wait(mu *sync.Mutex, ready func() bool) {
	cond := sync.NewCond(mu)
	mu.Lock()
	for !ready() {
		cond.Wait()
	}
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "time.Sleep under lock flagged",
			path: "internal/cluster/x.go",
			src: `package cluster
import (
	"sync"
	"time"
)
func nap(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(time.Second)
	mu.Unlock()
}
`,
			want: []string{"time.Sleep while holding mu"},
		},
		{
			name: "select with default is non-blocking",
			path: "internal/core/x.go",
			src: `package core
import "sync"
func poll(mu *sync.Mutex, ch chan int) (v int) {
	mu.Lock()
	select {
	case v = <-ch:
	default:
	}
	mu.Unlock()
	return v
}
`,
			want: nil,
		},
		{
			name: "goroutine body starts with fresh lock set",
			path: "internal/shim/x.go",
			src: `package shim
import "sync"
func spawn(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() {
		for range ch {
		}
	}()
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "blocking call in goroutine started under lock is not under it",
			path: "internal/shim/x.go",
			src: `package shim
import "sync"
type conn struct{}
func (conn) Send(v int) error { return nil }
func spawn(mu *sync.Mutex, c conn) {
	mu.Lock()
	go func() {
		_ = c.Send(1)
	}()
	_ = c.Send(2)
	mu.Unlock()
}
`,
			want: []string{"c.Send while holding mu"},
		},
		{
			name: "out-of-scope package ignored",
			path: "internal/simnet/x.go",
			src: `package simnet
import "sync"
func send(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "transport package in scope: dial under lock flagged",
			path: "internal/transport/x.go",
			src: `package transport
import (
	"net"
	"sync"
)
func connect(mu *sync.Mutex, addr string) (net.Conn, error) {
	mu.Lock()
	defer mu.Unlock()
	return net.Dial("tcp", addr)
}
`,
			want: []string{"net.Dial while holding mu"},
		},
		{
			name: "transport blocking select under lock flagged",
			path: "internal/transport/x.go",
			src: `package transport
import "sync"
func waitReply(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		return v
	}
}
`,
			// ctxflow (v2) also fires here: the select has no escape hatch.
			want: []string{"select can block forever", "blocking select while holding mu"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectMessages(t, runOn(t, tc.path, tc.src, ""), tc.want...)
		})
	}
}

func TestErrcheckWire(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "dropped send and flush flagged",
			path: "internal/shim/x.go",
			src: `package shim
type client struct{}
func (client) Send(v int) error  { return nil }
func (client) Flush() error      { return nil }
func fire(c client) {
	c.Send(1)
	c.Flush()
}
`,
			want: []string{"c.Send is dropped", "c.Flush is dropped"},
		},
		{
			name: "handled and blank-assigned errors allowed",
			path: "internal/core/x.go",
			src: `package core
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) error {
	if err := c.Send(1); err != nil {
		return err
	}
	_ = c.Send(2) // audited discard
	return nil
}
`,
			want: nil,
		},
		{
			name: "deadline setter flagged",
			path: "internal/cluster/x.go",
			src: `package cluster
import (
	"net"
	"time"
)
func probe(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
}
`,
			want: []string{"conn.SetReadDeadline is dropped"},
		},
		{
			name: "in-memory buffer writes allowed",
			path: "internal/transport/x.go",
			src: `package transport
import "bytes"
func build(buf *bytes.Buffer) {
	buf.Write([]byte("x"))
}
`,
			want: nil,
		},
		{
			name: "transport package in scope: dropped reply flagged",
			path: "internal/transport/x.go",
			src: `package transport
type serverConn struct{}
func (serverConn) Send(v int) error { return nil }
func (serverConn) Flush() error     { return nil }
func echo(sc serverConn) {
	sc.Send(1)
	_ = sc.Flush() // audited discard stays allowed
}
`,
			want: []string{"sc.Send is dropped"},
		},
		{
			name: "application on the shims in scope: dropped SendPartials flagged",
			path: "internal/search/x.go",
			src: `package search
type worker struct{}
func (worker) SendPartials(parts [][]byte) error { return nil }
func answer(w worker, parts [][]byte) {
	w.SendPartials(parts)
}
`,
			want: []string{"w.SendPartials is dropped"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectMessages(t, runOn(t, tc.path, tc.src, "errcheck-wire"), tc.want...)
		})
	}
}

func TestGoroutineHygiene(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "variable passed as argument allowed",
			path: "internal/core/x.go",
			src: `package core
func fanout(items []int, f func(int)) {
	for _, it := range items {
		go func(it int) {
			f(it)
		}(it)
	}
}
`,
			want: nil,
		},
		{
			name: "unstoppable infinite loop flagged",
			path: "internal/netem/x.go",
			src: `package netem
func spin(f func()) {
	go func() {
		for {
			f()
		}
	}()
}
`,
			want: []string{"no shutdown path"},
		},
		{
			name: "loop with stop channel allowed",
			path: "internal/netem/x.go",
			src: `package netem
func run(stop chan struct{}, f func()) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			f()
		}
	}()
}
`,
			want: nil,
		},
		{
			name: "loop with error return allowed",
			path: "internal/wire/x.go",
			src: `package wire
func reader(next func() error) {
	go func() {
		for {
			if err := next(); err != nil {
				return
			}
		}
	}()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectMessages(t, runOn(t, tc.path, tc.src, "goroutine-hygiene"), tc.want...)
		})
	}
}

func TestIgnoreSuppression(t *testing.T) {
	src := `package shim
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) {
	//lint:ignore errcheck-wire best-effort notification, audited 2026-08
	c.Send(1)
	c.Send(2) //lint:ignore errcheck-wire same-line suppression, audited 2026-08
	c.Send(3)
}
`
	got := runOn(t, "internal/shim/x.go", src, "errcheck-wire")
	expectMessages(t, got, "c.Send is dropped")
	if got[0].Line != 8 {
		t.Errorf("surviving finding at line %d, want 8 (only the unsuppressed call)", got[0].Line)
	}

	// An ignore without a reason does not suppress.
	src = `package shim
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) {
	//lint:ignore errcheck-wire
	c.Send(1)
}
`
	expectMessages(t, runOn(t, "internal/shim/x.go", src, "errcheck-wire"), "c.Send is dropped")

	// "all" suppresses any analyzer.
	src = `package shim
type client struct{}
func (client) Send(v int) error { return nil }
func fire(c client) {
	//lint:ignore all fixture
	c.Send(1)
}
`
	expectMessages(t, runOn(t, "internal/shim/x.go", src, "errcheck-wire"))
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "determinism", File: "internal/simnet/x.go", Line: 3, Col: 7, Message: "m"}
	want := "internal/simnet/x.go:3:7: determinism: m"
	if f.String() != want {
		t.Errorf("String() = %q, want %q", f.String(), want)
	}
}

func TestDocRule(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "undocumented exported decls flagged in scoped package",
			path: "internal/transport/x.go",
			src: `package transport
type Conn struct{}
func Dial() {}
func (c *Conn) Send() {}
var MaxFrame = 1 << 20
const Version = 3
`,
			want: []string{
				"type Conn", "function Dial", "method Send",
				"var MaxFrame", "const Version",
			},
		},
		{
			name: "documented decls and group docs pass",
			path: "internal/core/x.go",
			src: `package core
// Box is an agg box.
type Box struct{}
// Start boots the box.
func Start() {}
// Wire limits.
var (
	MaxFrame = 1 << 20
	MaxRoute = 16
)
`,
			want: nil,
		},
		{
			name: "exported struct fields and interface methods need docs",
			path: "internal/obs/x.go",
			src: `package obs
// Span is a hop record.
type Span struct {
	// Hop names the layer.
	Hop string
	Node string
	internal int
}
// Sink receives spans.
type Sink interface {
	// Push stores a span.
	Push(Span)
	Drain() []Span
}
`,
			want: []string{"field Span.Node", "interface method Sink.Drain"},
		},
		{
			name: "trailing field comments count as docs",
			path: "internal/cluster/x.go",
			src: `package cluster
// Host is a server.
type Host struct {
	Name string // Name is the host name.
}
`,
			want: nil,
		},
		{
			name: "unscoped packages and unexported names are ignored",
			path: "internal/simnet/x.go",
			src: `package simnet
type Flow struct{}
func Run() {}
`,
			want: nil,
		},
		{
			name: "test files are exempt",
			path: "internal/transport/x_test.go",
			src: `package transport
func HelperExported() {}
`,
			want: nil,
		},
		{
			name: "lint ignore suppresses",
			path: "internal/transport/x.go",
			src: `package transport
//lint:ignore docrule generated shim
func Generated() {}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectMessages(t, runOn(t, tc.path, tc.src, "docrule"), tc.want...)
		})
	}
}
