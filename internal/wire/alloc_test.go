//go:build !race

// ReadInto lands each payload in a bufpool buffer, and the race detector
// makes sync.Pool drop a share of its Puts; this file runs without it.

package wire

import (
	"bytes"
	"io"
	"testing"
)

// allocBatch is a source's frames of one request: hello, data, end.
func allocBatch() []*Msg {
	return []*Msg{
		{Type: THello, App: "wc", Req: 1, Source: 2, Payload: EncodeStrings([]string{"box-0:7100", "master:7000"})},
		{Type: TData, App: "wc", Req: 1, Source: 2, Seq: 1, Payload: bytes.Repeat([]byte("partial "), 512)},
		{Type: TEnd, App: "wc", Req: 1, Source: 2, Seq: 2},
	}
}

// TestWriteBatchDoesNotAllocate: once its scratch has grown, encoding a
// batch into one vectored write allocates nothing.
func TestWriteBatchDoesNotAllocate(t *testing.T) {
	vw := NewVectorWriter(io.Discard)
	batch := allocBatch()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := vw.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteBatch allocates %v times a run, want 0", n)
	}
}

// loopReader serves the same bytes over and over, a stream without end.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestReadIntoDoesNotAllocate: once the app name is interned and the
// payload's size class is warm, decoding a frame into a reused Msg and
// releasing its payload allocates nothing.
func TestReadIntoDoesNotAllocate(t *testing.T) {
	var stream bytes.Buffer
	if _, err := NewVectorWriter(&stream).WriteBatch(allocBatch()); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&loopReader{b: stream.Bytes()})
	var m Msg
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 3; i++ {
			if err := r.ReadInto(&m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
	}); n != 0 {
		t.Fatalf("ReadInto and Release allocate %v times a run, want 0", n)
	}
	if m.Type != TEnd || m.App != "wc" || m.Seq != 2 {
		t.Fatalf("read %+v, want the batch's TEnd", m)
	}
}
