// Positive fixtures: every handler here violates the protocol table in
// at least one way. One deliberate violation per diagnostic class:
// unknown role, missing *wire.Msg parameter, missing dispatch switch,
// handling a frame the role may not receive, silently dropping a
// receivable frame, and mutating state before the epoch guard (directly
// and through a callee). What a handler does with a payload buffer is no
// finding: buffer ownership is checked at run time, not by protocheck.
package fixture

import (
	"log"

	"netagg/internal/wire"
)

type monState struct {
	loads int
}

// handleMonitor also handles TData, which the table does not let a
// monitor receive.
//
//netagg:proto-handler monitor
func (s *monState) handleMonitor(m *wire.Msg) {
	switch m.Type {
	case wire.THeartbeat:
		s.loads++
	case wire.TData:
		s.loads++
	default:
		log.Printf("monitor: unexpected frame %v", m.Type)
	}
}

type pending struct {
	attempt int
	count   int
	bufs    [][]byte
}

// handleMaster mutates before the attempt check on TResult and has no
// TError case; keeping the TData payload without TakeBuf is no finding.
//
//netagg:proto-handler master
func (p *pending) handleMaster(m *wire.Msg, attempt int) {
	switch m.Type {
	case wire.TResult:
		p.count++
		if attempt != p.attempt {
			return
		}
		p.bufs = append(p.bufs, m.TakeBuf())
	case wire.TData:
		if attempt != p.attempt {
			return
		}
		p.bufs = append(p.bufs, m.Payload)
	case wire.TEnd:
		if attempt != p.attempt {
			return
		}
		p.count++
	default:
		log.Printf("master: unexpected frame %v", m.Type)
	}
}

type boxState struct {
	frames  int
	nextSeq map[uint64]uint64
	route   []byte
}

// ingest counts the frame before checking the per-source sequence
// number, so a re-sent frame double-counts.
func (s *boxState) ingest(m *wire.Msg) {
	s.frames++
	if m.Seq < s.nextSeq[m.Source] {
		return
	}
	s.nextSeq[m.Source] = m.Seq + 1
	sink(m.TakeBuf())
}

func sink(b []byte) {}

// handleBox reaches ingest's unguarded mutation on TData; taking the
// TExpect payload is no finding.
//
//netagg:proto-handler box
func (s *boxState) handleBox(m *wire.Msg) {
	switch m.Type {
	case wire.THello:
		s.route = append(s.route[:0], m.Payload...)
	case wire.TData:
		s.ingest(m)
	case wire.TEnd:
		if m.Seq != s.nextSeq[m.Source] {
			return
		}
		s.nextSeq[m.Source] = m.Seq + 1
		s.frames++
	case wire.TExpect:
		s.route = m.TakeBuf()
	case wire.THeartbeat:
	case wire.TCancel:
	case wire.TFanout:
	default:
		log.Printf("box: unexpected frame %v", m.Type)
	}
}

// handleGateway names a role the protocol table does not know.
//
//netagg:proto-handler gateway
func handleGateway(m *wire.Msg) {
	switch m.Type {
	case wire.THello:
	}
}

// handleNoMsg has nothing to dispatch on.
//
//netagg:proto-handler worker
func handleNoMsg(attempt int) {
	_ = attempt
}

// handleNoSwitch filters instead of dispatching: every frame that is
// not a redirect is silently treated as handled.
//
//netagg:proto-handler worker
func handleNoSwitch(m *wire.Msg, last uint64) {
	if m.Type != wire.TRedirect {
		return
	}
	applyRedirect(m.Payload, last)
}

func applyRedirect(p []byte, last uint64) {}
