// Negative fixtures: the correct counterpart of every positive case.
// Each role's handler dispatches on the message type with a logged
// default, covers exactly the frames the protocol table lets it
// receive, and guards epoch-sensitive mutations. The analyzer must stay
// silent on all of them.
package fixture

import (
	"log"

	"netagg/internal/wire"
)

type pending struct {
	attempt int
	count   int
	bufs    [][]byte
	parts   map[uint64][][]byte
}

// handleMaster guards on the attempt epoch before the dispatch switch,
// so every arm mutates post-guard.
//
//netagg:proto-handler master
func (p *pending) handleMaster(m *wire.Msg, attempt int) {
	if attempt != p.attempt {
		return
	}
	switch m.Type {
	case wire.TResult:
		p.bufs = append(p.bufs, m.TakeBuf())
		p.count++
	case wire.TData:
		p.bufs = append(p.bufs, m.TakeBuf())
	case wire.TEnd:
		delete(p.parts, m.Source)
		p.count++
	case wire.TError:
		p.count++
	default:
		log.Printf("master: unexpected frame %v", m.Type)
	}
}

type boxState struct {
	frames  int
	nextSeq map[uint64]uint64
	route   []byte
	expect  int
	bufs    [][]byte
}

// handleBox covers all seven box-receivable frames and guards the TData
// and TEnd mutations behind the per-source sequence check.
//
//netagg:proto-handler box
func (s *boxState) handleBox(m *wire.Msg) {
	switch m.Type {
	case wire.THello:
		s.route = append(s.route[:0], m.Payload...)
	case wire.TData:
		if m.Seq != s.nextSeq[m.Source] {
			return
		}
		s.nextSeq[m.Source] = m.Seq + 1
		s.bufs = append(s.bufs, m.TakeBuf())
	case wire.TEnd:
		if m.Seq != s.nextSeq[m.Source] {
			return
		}
		s.nextSeq[m.Source] = m.Seq + 1
		s.frames++
	case wire.TExpect:
		s.expect++
	case wire.THeartbeat:
	case wire.TCancel:
		s.frames = 0
	case wire.TFanout:
		s.route = append(s.route[:0], m.Payload...)
	default:
		log.Printf("box: unexpected frame %v", m.Type)
	}
}

type sender struct {
	lastAttempt uint64
	ended       int
}

// control applies a redirect only when its attempt is newer than the
// last one applied (the straggler-timer/monitor race dedup), and counts
// the ended requests a done notice lists.
//
//netagg:proto-handler worker
func (s *sender) control(m *wire.Msg) {
	switch m.Type {
	case wire.TRedirect:
		attempt, _ := wire.DecodeCount(m.Payload)
		if attempt <= s.lastAttempt {
			return
		}
		s.lastAttempt = attempt
	case wire.TDone:
		ids, _ := wire.DecodeIDs(m.Payload)
		s.ended += len(ids)
	default:
		log.Printf("worker: unexpected frame %v", m.Type)
	}
}

type monitor struct {
	loads map[string]float64
}

// handleEcho decodes the echoed load signal; heartbeats carry no epoch
// state, so no guard is required.
//
//netagg:proto-handler monitor
func (mo *monitor) handleEcho(addr string, m *wire.Msg) {
	switch m.Type {
	case wire.THeartbeat:
		mo.loads[addr] = float64(m.Seq)
	default:
		log.Printf("monitor: unexpected frame %v", m.Type)
	}
}

// notAHandler carries no annotation: protocheck ignores it even though
// its switch handles a frame only the master may receive.
func notAHandler(m *wire.Msg) {
	switch m.Type {
	case wire.TResult:
	}
}
