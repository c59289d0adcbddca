// Package wire implements NetAgg's binary network protocol (§3.2.1
// "Network layer"): compact length-prefixed frames with varint-encoded
// headers, the Go analogue of the paper's KryoNet-based transport. Shim
// layers and agg boxes exchange Msg frames over persistent TCP connections.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"netagg/internal/bufpool"
)

// Type identifies the kind of a frame.
type Type uint8

const (
	// THello opens a stream: it announces the sender's identity and role.
	THello Type = iota + 1
	// TData carries one canonical part of a partial result for a request.
	TData
	// TEnd marks the end of one source's partial results for a request.
	TEnd
	// TExpect tells a box how many direct sources will feed it for a
	// request (sent by the master shim, §3.2.2 "Partial result collection").
	TExpect
	// TResult carries a fully aggregated result to the master shim.
	TResult
	// THeartbeat is the failure detector's liveness probe (§3.1).
	THeartbeat
	// TRedirect instructs a node to resend a request's results elsewhere
	// (failure/straggler recovery, §3.1).
	TRedirect
	// Value 8 is retired (a reserved acknowledgement frame nothing ever
	// sent); the slot stays skipped so no other frame's encoding moves.
	_
	// TError reports a fatal per-request error upstream.
	TError
	// TCancel tells a box to discard its local aggregation state for a
	// superseded request epoch (subtree migration, §3.1 recovery): the
	// box drains and releases buffered partials instead of waiting for
	// the janitor, and the master ignores any result the stale epoch
	// still produces via its attempt check.
	TCancel
	// TDone tells a worker shim that requests of the frame's App have
	// ended, so the sends it retains for their recovery can go. The
	// payload is an id list (EncodeIDs); the master batches it per worker.
	TDone
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TData:
		return "data"
	case TEnd:
		return "end"
	case TExpect:
		return "expect"
	case TResult:
		return "result"
	case THeartbeat:
		return "heartbeat"
	case TRedirect:
		return "redirect"
	case TError:
		return "error"
	case TCancel:
		return "cancel"
	case TDone:
		return "done"
	case TFanout:
		return "fanout"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Msg is one protocol frame.
type Msg struct {
	Type Type
	// App names the application whose aggregation function applies.
	App string
	// Req identifies the request (or map/reduce partition) being aggregated.
	Req uint64
	// Source identifies the sending node (worker index, box id); used for
	// counting expected sources and deduplication.
	Source uint64
	// Seq orders a source's frames within a request, for dedup on failover.
	Seq uint64
	// Payload is the serialised application data (TData/TResult), the
	// expected source count (TExpect, varint), or empty.
	Payload []byte
	// Buf, when non-nil, is the reference-counted pool buffer backing
	// Payload. On an inbound frame (filled by Reader) the frame owns one
	// reference: the receiver must Release it when done with Payload, or
	// Retain it to keep the bytes longer (a forgotten Release is
	// reclaimed by the GC — it costs recycling, never correctness). On
	// an outbound frame Buf is a non-owning pointer that lets the
	// transport's send queue take a reference of its own; senders keep
	// their reference until Send returns and must not call Release
	// through the Msg.
	Buf *bufpool.Buf
}

// Release drops an inbound frame's payload reference and detaches the
// buffer so a reused Msg cannot alias recycled bytes. Safe on frames
// with no pooled payload.
func (m *Msg) Release() {
	b := m.Buf
	if b == nil {
		return
	}
	m.Buf = nil
	m.Payload = nil
	b.Release()
}

// TakeBuf detaches the frame's payload reference and hands it to the
// caller, who becomes responsible for releasing it. A frame whose
// payload was never pooled (or a reply built by hand) yields an
// unpooled adopted wrapper so the caller's release discipline is
// uniform. Payload stays readable either way.
func (m *Msg) TakeBuf() *bufpool.Buf {
	b := m.Buf
	if b == nil {
		return bufpool.Adopt(m.Payload)
	}
	m.Buf = nil
	return b
}

// attachPayload hands b's reference to the frame: Payload aliases the
// buffer and Buf carries the obligation to Release it.
func (m *Msg) attachPayload(b *bufpool.Buf) {
	m.Buf = b
	m.Payload = b.Bytes()
}

// MaxPayload is the largest accepted frame payload (16 MiB). A worker with
// a larger partial result sends it as several TData frames, each a
// canonical payload of its own; a box's aggregate over the limit fails
// its job with a typed error, because one aggregate is one part.
const MaxPayload = 16 << 20

// maxAppLen bounds the application name.
const maxAppLen = 255

var (
	// ErrTooLarge reports a frame exceeding MaxPayload.
	ErrTooLarge = errors.New("wire: frame payload exceeds limit")
	// ErrCorrupt reports a malformed frame.
	ErrCorrupt = errors.New("wire: corrupt frame")
)

// errAppTooLong is kept out of line, so that CheckFrame stays small enough
// to inline into the encoder and the fmt.Errorf boxing of the name
// allocates only on the error path.
//
//go:noinline
func errAppTooLong(app string) error {
	return fmt.Errorf("wire: app name %q too long", app)
}

// Reader deserialises frames from a buffered stream. Not safe for
// concurrent use.
type Reader struct {
	r *bufio.Reader
	// lenb is the length-prefix scratch. Keeping it in the struct rather
	// than on ReadInto's stack matters: a stack array sliced into
	// io.ReadFull was moved to the heap on every frame.
	lenb [4]byte
	// apps interns application names. A connection carries frames for a
	// small fixed set of apps, so after the first frame per app the
	// map[string(bytes)] lookup hits the compiler's zero-alloc fast path
	// instead of converting the name out of the header on every frame.
	apps map[string]string
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64*1024)}
}

// maxHeader is the largest possible frame header: 2 bytes of fixed
// fields, maxAppLen name bytes, and four varints. It is comfortably
// below the bufio buffer size, so a full header can always be peeked.
const maxHeader = 2 + maxAppLen + 4*binary.MaxVarintLen64

// maxInternedApps bounds the interning map so a peer cycling through
// adversarial names cannot grow it without bound.
const maxInternedApps = 64

// internApp returns the canonical string for an app name without
// allocating on the repeat-name path.
func (r *Reader) internApp(name []byte) string {
	if len(name) == 0 {
		return ""
	}
	if s, ok := r.apps[string(name)]; ok {
		return s
	}
	return r.internAppSlow(name)
}

// internAppSlow is the interning miss path: it allocates the canonical
// string (and, once, the map). Kept out of line so that internApp is the
// lookup alone — after the first frame per app name, only the zero-alloc
// lookup above runs.
//
//go:noinline
func (r *Reader) internAppSlow(name []byte) string {
	s := string(name)
	if len(r.apps) < maxInternedApps {
		if r.apps == nil {
			r.apps = make(map[string]string, 8)
		}
		r.apps[s] = s
	}
	return s
}

// Read returns the next frame. The returned Msg owns its payload: see
// Msg.Buf for the release contract.
func (r *Reader) Read() (*Msg, error) {
	m := &Msg{}
	if err := r.ReadInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadInto decodes the next frame into m, overwriting every field. The
// payload lands in a pool buffer whose reference m owns (Msg.Buf); any
// buffer previously attached to m is NOT released — callers reusing a
// Msg release it first. The header is parsed in place inside the bufio
// window, so a steady-state frame costs one pool fetch and no heap
// allocations.
func (r *Reader) ReadInto(m *Msg) error {
	if _, err := io.ReadFull(r.r, r.lenb[:]); err != nil {
		return err
	}
	frameLen := int(binary.BigEndian.Uint32(r.lenb[:]))
	if frameLen < 2 || frameLen > MaxPayload+maxHeader {
		return ErrCorrupt
	}
	// Peek the header region without consuming it: the frame prefix up
	// to maxHeader bytes is guaranteed to contain the whole header.
	peek := frameLen
	if peek > maxHeader {
		peek = maxHeader
	}
	hdr, err := r.r.Peek(peek)
	if err != nil {
		// The length prefix arrived, so a clean EOF here means the peer
		// died mid-frame.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}

	m.Type = Type(hdr[0])
	appLen := int(hdr[1])
	rest := hdr[2:]
	if appLen > len(rest) {
		return ErrCorrupt
	}
	m.App = r.internApp(rest[:appLen])
	rest = rest[appLen:]

	var n int
	if m.Req, n = binary.Uvarint(rest); n <= 0 {
		return ErrCorrupt
	}
	rest = rest[n:]
	if m.Source, n = binary.Uvarint(rest); n <= 0 {
		return ErrCorrupt
	}
	rest = rest[n:]
	if m.Seq, n = binary.Uvarint(rest); n <= 0 {
		return ErrCorrupt
	}
	rest = rest[n:]
	payloadLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return ErrCorrupt
	}
	rest = rest[n:]
	headerLen := peek - len(rest)
	if payloadLen > MaxPayload || payloadLen != uint64(frameLen-headerLen) {
		return ErrCorrupt
	}
	if _, err := r.r.Discard(headerLen); err != nil {
		return err
	}
	m.Buf = nil
	m.Payload = nil
	if payloadLen > 0 {
		b := bufpool.Get(int(payloadLen))
		if _, err := io.ReadFull(r.r, b.Bytes()); err != nil {
			b.Release()
			// The header was consumed, so even a clean EOF is a truncated
			// frame, not a graceful close.
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		m.attachPayload(b)
	}
	return nil
}

// EncodeCount encodes a source count for a TExpect payload.
func EncodeCount(n int) []byte {
	return binary.AppendUvarint(nil, uint64(n))
}

// DecodeCount decodes a TExpect payload.
func DecodeCount(p []byte) (int, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// EncodeIDs encodes a TDone payload: the number of request ids, then
// each id, all uvarints.
func EncodeIDs(ids []uint64) []byte {
	p := make([]byte, 0, binary.MaxVarintLen64*(len(ids)+1))
	p = binary.AppendUvarint(p, uint64(len(ids)))
	for _, id := range ids {
		p = binary.AppendUvarint(p, id)
	}
	return p
}

// DecodeIDs decodes a TDone payload. A count the payload cannot hold,
// a truncated id or a trailing byte is ErrCorrupt.
func DecodeIDs(p []byte) ([]uint64, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	p = p[n:]
	if count > uint64(len(p)) { // every id takes at least one byte
		return nil, ErrCorrupt
	}
	ids := make([]uint64, count)
	for i := range ids {
		if ids[i], n = binary.Uvarint(p); n <= 0 {
			return nil, ErrCorrupt
		}
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, ErrCorrupt
	}
	return ids, nil
}

// EncodeLoad encodes a box's load signal — scheduler queue depth and
// flush-latency EWMA in microseconds — as a THeartbeat reply payload, so
// every liveness probe doubles as a telemetry sample for the replanner.
func EncodeLoad(queueDepth int, flushUs int64) []byte {
	p := binary.AppendUvarint(nil, uint64(queueDepth))
	return binary.AppendUvarint(p, uint64(flushUs))
}

// DecodeLoad decodes a heartbeat-reply load payload. An empty payload
// decodes as zero load: boxes predating the telemetry extension reply
// without one, and their heartbeats must keep working.
func DecodeLoad(p []byte) (queueDepth int, flushUs int64, err error) {
	if len(p) == 0 {
		return 0, 0, nil
	}
	q, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	f, n2 := binary.Uvarint(p[n:])
	if n2 <= 0 {
		return 0, 0, ErrCorrupt
	}
	return int(q), int64(f), nil
}
