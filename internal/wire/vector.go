package wire

import (
	"encoding/binary"
	"io"
	"net"
)

// VectorWriter serialises batches of frames with a single vectored write
// (net.Buffers → writev on a *net.TCPConn): the headers of the whole
// batch are encoded back-to-back into one reused scratch buffer and each
// payload is appended as its own iovec element, so payload bytes flow
// from their pool buffer to the socket without passing through an
// intermediate copy. It is the package's only encoder and is not safe
// for concurrent use: the transport serialises access through one
// flusher goroutine per connection.
type VectorWriter struct {
	w io.Writer
	// hdr is the header scratch for the whole batch: every frame's
	// 4-byte length prefix plus header, back to back. Reused across
	// batches; grows to the high-water mark once.
	hdr []byte
	// ends records each frame's header end offset in hdr, so iovec
	// assembly can slice hdr after all appends are done (appending while
	// slicing would alias a stale backing array after growth).
	ends []int
	// bufs is the reused iovec assembly. WriteTo consumes the slice
	// header, so each batch re-derives it from arr.
	bufs net.Buffers
	// arr is the persistent backing array bufs is re-sliced from.
	arr [][]byte
}

// NewVectorWriter returns a VectorWriter on w. When w is a *net.TCPConn
// the batch goes out as one writev; other writers (netem-shaped
// connections, pipes) degrade to one Write per iovec element with
// identical bytes on the wire.
func NewVectorWriter(w io.Writer) *VectorWriter {
	return &VectorWriter{w: w}
}

// CheckFrame reports why m cannot be encoded — ErrTooLarge for a payload
// over MaxPayload, or an app name over 255 bytes — and nil when it can.
// It is the encoder's own check, exported so the transport can refuse a
// frame where it is handed over, to the caller that built it, instead of
// when a flusher fails to write it.
func CheckFrame(m *Msg) error {
	if len(m.Payload) > MaxPayload {
		return ErrTooLarge
	}
	if len(m.App) > maxAppLen {
		return errAppTooLong(m.App)
	}
	return nil
}

// appendFrame validates m and encodes its length prefix and header onto
// the batch scratch.
func (v *VectorWriter) appendFrame(m *Msg) error {
	if err := CheckFrame(m); err != nil {
		return err
	}
	start := len(v.hdr)
	v.hdr = append(v.hdr, 0, 0, 0, 0) // length prefix, patched below
	h := len(v.hdr)
	v.hdr = append(v.hdr, byte(m.Type), byte(len(m.App)))
	v.hdr = append(v.hdr, m.App...)
	v.hdr = binary.AppendUvarint(v.hdr, m.Req)
	v.hdr = binary.AppendUvarint(v.hdr, m.Source)
	v.hdr = binary.AppendUvarint(v.hdr, m.Seq)
	v.hdr = binary.AppendUvarint(v.hdr, uint64(len(m.Payload)))
	binary.BigEndian.PutUint32(v.hdr[start:], uint32(len(v.hdr)-h+len(m.Payload)))
	v.ends = append(v.ends, len(v.hdr))
	return nil
}

// grow is the iovec array's cold capacity-miss path, kept out of the hot
// batch loop: it runs once per batch-size high-water mark, after which
// WriteBatch stays allocation-free.
//
//go:noinline
func (v *VectorWriter) grow(need int) {
	v.arr = make([][]byte, need)
}

// WriteBatch writes msgs as one vectored write and reports the bytes
// written. Headers of frames with empty payloads coalesce into their
// neighbours' header iovec, so a batch of k frames costs at most 2k
// iovec elements and usually far fewer. A short write or error leaves
// the stream corrupt mid-frame; callers must drop the connection (the
// transport re-dials and rewrites, §3.1 recovery).
func (v *VectorWriter) WriteBatch(msgs []*Msg) (int64, error) {
	v.hdr = v.hdr[:0]
	v.ends = v.ends[:0]
	for _, m := range msgs {
		if err := v.appendFrame(m); err != nil {
			return 0, err
		}
	}
	// Assemble iovecs: consecutive header segments share one element
	// until a non-empty payload forces a break.
	need := 2 * len(msgs)
	if cap(v.arr) < need {
		v.grow(need)
	}
	arr := v.arr[:cap(v.arr)]
	k := 0
	runStart := 0 // hdr offset where the current merged header run began
	for i, m := range msgs {
		if len(m.Payload) == 0 {
			continue
		}
		arr[k] = v.hdr[runStart:v.ends[i]]
		arr[k+1] = m.Payload
		k += 2
		runStart = v.ends[i]
	}
	if runStart < len(v.hdr) {
		arr[k] = v.hdr[runStart:]
		k++
	}
	v.bufs = net.Buffers(arr[:k])
	n, err := v.bufs.WriteTo(v.w)
	// Drop payload references so recycled pool buffers are not pinned by
	// the reused iovec array.
	for i := 0; i < k; i++ {
		arr[i] = nil
	}
	return n, err
}
