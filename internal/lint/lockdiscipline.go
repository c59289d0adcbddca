package lint

import (
	"fmt"
	"go/token"
)

// dataPlanePackages are the lock-and-goroutine heavy agg-box packages
// where holding a mutex across a blocking operation stalls every other
// request sharing the lock (and under churn risks deadlock against
// back-pressure). transport is the shared connection layer they all ride
// on, so it is held to the same discipline. wire is not listed: a codec
// over its caller's reader and writer, it holds no mutex.
var dataPlanePackages = []string{"core", "shim", "cluster", "transport"}

// blockingMethods are method names that perform (or can perform) network
// I/O or otherwise block indefinitely. The set is tuned to this repo's
// idioms: wire.VectorWriter batches, transport.Conn/Pool sends and
// net.Conn traffic, dialing, accepting, and WaitGroup waits. Read is also
// a common non-blocking name (buffers), but this repo's readers are
// wire.Reader or net.Conn; summaryScan.neverBlocks holds the exemptions.
var blockingMethods = map[string]bool{
	"Write": true, "WriteBatch": true, "Flush": true, "Send": true, "SendAll": true,
	"Dial": true, "DialTimeout": true, "Accept": true, "Wait": true, "Read": true,
	"ReadFull": true, "ReadFrom": true, "WriteTo": true, "CopyN": true,
}

// LockDiscipline flags blocking operations performed while a
// sync.Mutex/RWMutex is held in the data-plane packages.
//
// It reports from the package summary's blocking sites (pkggraph.go), so
// lock tracking is the shared walker's: syntactic and intra-procedural,
// x.Lock()/x.RLock() starts a held region, x.Unlock()/x.RUnlock() ends
// it, defer x.Unlock() holds it to the end of the function, branches are
// scanned with a copy of the held set, and a function literal — a
// goroutine's body included — starts from an empty one. cond.Wait() is
// exempt (it releases the mutex by contract).
type LockDiscipline struct{}

// Name implements Analyzer.
func (LockDiscipline) Name() string { return "lockdiscipline" }

// Doc implements Analyzer.
func (LockDiscipline) Doc() string {
	return "no blocking I/O, channel operations, or sleeps while a mutex is held in core/shim/cluster/transport"
}

// CheckPackage implements PackageAnalyzer.
func (LockDiscipline) CheckPackage(p *pkgSummary, report func(pos token.Pos, msg string)) {
	if !p.inScope(dataPlanePackages...) {
		return
	}
	for _, fs := range p.all {
		for _, b := range fs.blocks {
			if len(b.held) == 0 {
				continue
			}
			// The innermost lock, as the function spells it.
			holding := fs.lockText[b.held[len(b.held)-1]]
			switch b.kind {
			case blockSend:
				report(b.pos, fmt.Sprintf("channel send while holding %s; deliver after unlocking", holding))
			case blockRecv:
				report(b.pos, fmt.Sprintf("channel receive while holding %s", holding))
			case blockSelect, blockSelectBounded:
				report(b.pos, fmt.Sprintf("blocking select while holding %s", holding))
			case blockSleep:
				report(b.pos, fmt.Sprintf("time.Sleep while holding %s", holding))
			case blockCall:
				report(b.pos, fmt.Sprintf("potentially blocking call %s while holding %s", b.desc, holding))
			}
		}
	}
}
