package transport

import (
	"io"
	"testing"

	"netagg/internal/wire"
)

// TestFlushDoesNotAllocate is the flusher's write path: staged frames
// leave in batch-bounded vectored writes, each counted and completed,
// without allocating once the queue's and the writer's scratch has grown.
// The 70 frames split on the frame cap and their three 512 KiB payloads
// on the byte cap. The payloads are unpooled, as the race detector's
// sync.Pool drops a share of its Puts.
func TestFlushDoesNotAllocate(t *testing.T) {
	small := make([]byte, 256)
	large := make([]byte, 512<<10)
	var staged []sendReq
	for i := 0; i < 70; i++ {
		p := small
		if i >= 10 && i < 13 {
			p = large
		}
		staged = append(staged, sendReq{m: wire.Msg{Type: wire.TData, App: "wc", Req: 1, Seq: uint64(i), Payload: p}})
	}
	q := &sendq{stats: &counters{}}
	vw := wire.NewVectorWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		q.pending = append(q.pending, staged...)
		if n, err := q.flush(vw); err != nil || n != len(staged) {
			t.Fatalf("flush wrote %d frames, err %v; want %d", n, err, len(staged))
		}
	}); n != 0 {
		t.Fatalf("flush allocates %v times a run, want 0", n)
	}
}
