package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host yardstick. The machines this benchmark runs on are a few cores
// of a shared host whose speed moves by tens of per cent for seconds to
// minutes at a time (README.md, "The host yardstick"); two runs of the same
// code a minute apart then differ by more than any bound worth having. A
// drifting instrument needs a reference: a fixed kernel, timed again and
// again while the fabric runs, says how slow the host is right now, and the
// four timed end-to-end metrics are stated at the reference host speed.
//
// The kernel runs in a process of its own (this same binary, started with
// yardstickArg), so it shares neither heap, garbage collector nor Go
// scheduler with the fabric, allocates nothing while it measures, and is
// timed by its thread's CPU clock, so waiting for a core does not count.
// It is busy about a tenth of one core.

// yardstickArg makes the benchmark binary (and its test binary) run as the
// yardstick child instead.
const yardstickArg = "-yardstick"

const (
	// yardNominalNs is one kernel run's CPU time on the quiet host the
	// benchmark was written on, with the fabric running beside it:
	// slowdown 1.0. Any constant would do, only ratios between runs matter.
	yardNominalNs = 3.3e6
	yardPeriod    = 50 * time.Millisecond

	chaseWords = 4 << 20 // 16 MB of uint32, a line of it touched once a minute: always a miss
	chaseSteps = 10000
	aluRounds  = 100000
	mergeKeys  = 20000
	mergeReps  = 3
	mapKeys    = 4096
	mapReps    = 4
)

// yardKernel is the fixed work: a dependent walk through memory, four
// independent register-only shift/xor chains, a merge of two sorted
// key/value lists that fit in cache, and updates of a small map. Together
// they slow down under a busy neighbour about as the fabric's own mix of
// pointer-chasing, branchy byte handling and hashing does.
type yardKernel struct {
	next   []uint32
	at     uint32
	la, lb []byte
	out    []byte
	keys   []string
	counts map[string]uint64
	sink   uint64
}

func newYardKernel() *yardKernel {
	k := &yardKernel{next: make([]uint32, chaseWords), counts: make(map[string]uint64, 2*mapKeys)}
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// One random cycle through the whole buffer (Sattolo's shuffle).
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := rnd() % uint64(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := 0; i < mergeKeys; i++ {
		key := fmt.Sprintf("word%06d", i)
		if rnd()%5 < 2 {
			k.la = appendKV(k.la, key, rnd())
		}
		if rnd()%5 < 2 {
			k.lb = appendKV(k.lb, key, rnd())
		}
	}
	k.out = make([]byte, 0, len(k.la)+len(k.lb))
	for i := 0; i < mapKeys; i++ {
		k.keys = append(k.keys, fmt.Sprintf("word%06d", rnd()%mergeKeys))
	}
	return k
}

// appendKV appends one entry: key length, key, 8-byte value.
func appendKV[K string | []byte](b []byte, key K, v uint64) []byte {
	b = append(b, byte(len(key)))
	b = append(b, key...)
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func kvValue(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// mergeKV merges two sorted lists into out, summing the values of equal keys.
func mergeKV(a, b, out []byte) []byte {
	out = out[:0]
	for len(a) > 0 && len(b) > 0 {
		ka, kb := a[1:1+a[0]], b[1:1+b[0]]
		switch c := bytes.Compare(ka, kb); {
		case c < 0:
			out = appendKV(out, ka, kvValue(a[1+len(ka):]))
			a = a[9+len(ka):]
		case c > 0:
			out = appendKV(out, kb, kvValue(b[1+len(kb):]))
			b = b[9+len(kb):]
		default:
			out = appendKV(out, ka, kvValue(a[1+len(ka):])+kvValue(b[1+len(kb):]))
			a, b = a[9+len(ka):], b[9+len(kb):]
		}
	}
	return append(append(out, a...), b...)
}

func (k *yardKernel) run() {
	at := k.at
	for i := 0; i < chaseSteps; i++ {
		at = k.next[at]
	}
	k.at = at

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < aluRounds; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	k.sink += a + b + c + d

	for i := 0; i < mergeReps; i++ {
		k.out = mergeKV(k.la, k.lb, k.out)
	}
	k.sink += uint64(k.out[len(k.out)-1])

	for i := 0; i < mapReps; i++ {
		for _, key := range k.keys {
			k.counts[key]++
		}
	}
}

// threadCPU is the calling thread's CPU time, to the nanosecond: getrusage
// counts in scheduler ticks of 4 ms here, as long as the whole kernel.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// yardstickMain is the child: it builds the kernel, says "ready", waits for
// a line on standard input, then times the kernel every yardPeriod until
// standard input is closed, and prints one "<unix ns> <cpu ns>" line per
// run. A parent that dies closes the pipe, so the child never outlives it.
func yardstickMain() {
	runtime.LockOSThread() // threadCPU must read the thread the kernel ran on
	k := newYardKernel()
	k.run()
	in := bufio.NewReader(os.Stdin)
	fmt.Println("ready")
	if _, err := in.ReadString('\n'); err != nil {
		return
	}
	closed := make(chan struct{})
	go func() {
		// End of input or a broken pipe: either way the parent is done.
		_, _ = io.Copy(io.Discard, in)
		close(closed)
	}()
	type sample struct{ at, cpu int64 }
	samples := make([]sample, 0, 4096)
	tick := time.NewTicker(yardPeriod)
	defer tick.Stop()
	for {
		select {
		case <-closed:
			out := bufio.NewWriter(os.Stdout)
			for _, s := range samples {
				fmt.Fprintln(out, s.at, s.cpu)
			}
			out.Flush()
			return
		case <-tick.C:
		}
		at := time.Now()
		c0 := threadCPU()
		k.run()
		samples = append(samples, sample{at.UnixNano(), int64(threadCPU() - c0)})
	}
}

// yardSample is one timed kernel run.
type yardSample struct {
	at  time.Time
	cpu time.Duration
}

// yardstick is the running child.
type yardstick struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startYardstick starts the child and waits until its kernel is built; it
// does not measure until begin.
func startYardstick() (*yardstick, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, yardstickArg)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	y := &yardstick{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if line, err := y.out.ReadString('\n'); err != nil || line != "ready\n" {
		y.kill()
		return nil, fmt.Errorf("yardstick child did not start: %q, %v", line, err)
	}
	return y, nil
}

// begin starts the measuring.
func (y *yardstick) begin() error {
	_, err := io.WriteString(y.stdin, "go\n")
	return err
}

// stop ends the measuring, collects the samples and waits for the child.
func (y *yardstick) stop() ([]yardSample, error) {
	if err := y.stdin.Close(); err != nil {
		return nil, err
	}
	var samples []yardSample
	for {
		var at, cpu int64
		if _, err := fmt.Fscan(y.out, &at, &cpu); err != nil {
			break
		}
		samples = append(samples, yardSample{time.Unix(0, at), time.Duration(cpu)})
	}
	err := y.cmd.Wait()
	y.cmd = nil
	return samples, err
}

// kill is the way out on an error path: it is a no-op after stop.
func (y *yardstick) kill() {
	if y.cmd == nil {
		return
	}
	// Errors do not matter on the way out: the child is gone either way.
	_ = y.stdin.Close()
	_ = y.cmd.Process.Kill()
	_ = y.cmd.Wait()
	y.cmd = nil
}

// slowdown is how slow the host ran between from and to: the median CPU
// time of the kernel runs begun in between over the nominal, or 0 when
// there are too few to say.
func slowdown(samples []yardSample, from, to time.Time) float64 {
	var ns []float64
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			ns = append(ns, float64(s.cpu))
		}
	}
	if len(ns) < 3 {
		return 0
	}
	sort.Float64s(ns)
	return median(ns) / yardNominalNs
}
