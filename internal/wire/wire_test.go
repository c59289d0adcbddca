package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// encode serialises msgs as one batch through the encoder production
// uses. A bytes.Buffer is not a *net.TCPConn, so the batch takes the
// per-iovec Write fallback that netem-shaped connections take.
func encode(tb testing.TB, msgs ...*Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := NewVectorWriter(&buf).WriteBatch(msgs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll reads exactly n frames off stream and requires EOF after them.
func decodeAll(t *testing.T, stream io.Reader, n int) []*Msg {
	t.Helper()
	r := NewReader(stream)
	out := make([]*Msg, 0, n)
	for i := 0; i < n; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out = append(out, m)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF after all frames, got %v", err)
	}
	return out
}

func roundTrip(t *testing.T, msgs []*Msg) []*Msg {
	t.Helper()
	return decodeAll(t, bytes.NewReader(encode(t, msgs...)), len(msgs))
}

// sameFrame reports whether two frames carry the same fields and payload.
func sameFrame(a, b *Msg) bool {
	return a.Type == b.Type && a.App == b.App && a.Req == b.Req &&
		a.Source == b.Source && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
}

func TestRoundTripBasic(t *testing.T) {
	in := []*Msg{
		{Type: THello, App: "wc", Req: 1, Source: 2, Payload: EncodeStrings([]string{"a:1", "b:2"})},
		{Type: TData, App: "wc", Req: 1, Source: 2, Seq: 5, Payload: []byte("hello")},
		{Type: TEnd, App: "wc", Req: 1, Source: 2},
		{Type: TExpect, App: "wc", Req: 1, Payload: EncodeCount(7)},
		{Type: THeartbeat, Seq: 99},
	}
	out := roundTrip(t, in)
	for i := range in {
		if !sameFrame(in[i], out[i]) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, in[i], out[i])
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	out := roundTrip(t, []*Msg{{Type: TResult, App: "x", Req: 3}})
	if len(out[0].Payload) != 0 {
		t.Fatal("payload should be empty")
	}
}

// writeCounter is a plain io.Writer (not a *net.TCPConn), so a batch
// reaches it as one Write per iovec element — the fallback netem-shaped
// connections take — and the call count is the batch's iovec count.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A batched run the shape the shims send, with empty-payload frames
// between payload frames: the headers of the empty frames must coalesce
// into their neighbour's header iovec, and the stream must decode back
// frame for frame.
func TestVectorWriterBatchCoalescesHeaders(t *testing.T) {
	in := []*Msg{
		{Type: THello, App: "wc", Req: 1, Source: 2, Payload: EncodeStrings([]string{"a:1"})},
		{Type: TData, App: "wc", Req: 1, Source: 2, Seq: 0, Payload: []byte("p0")},
		{Type: TEnd, App: "wc", Req: 1, Source: 2, Seq: 1},
		{Type: TCancel, App: "wc", Req: 9},
		{Type: TData, App: "wc", Req: 1, Source: 3, Seq: 0, Payload: []byte("p1")},
		{Type: TEnd, App: "wc", Req: 1, Source: 3, Seq: 1},
		{Type: TExpect, App: "wc", Req: 1, Payload: EncodeCount(2)},
		{Type: TEnd, App: "wc", Req: 1, Source: 4},
	}
	var w writeCounter
	n, err := NewVectorWriter(&w).WriteBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(w.Len()) {
		t.Fatalf("WriteBatch reported %d bytes, wrote %d", n, w.Len())
	}
	// Four payload frames cost a header run and a payload each; the
	// trailing empty frame's header is a ninth element. Uncoalesced, the
	// eight frames would take twelve.
	if w.writes != 9 {
		t.Fatalf("batch took %d iovec elements, want 9", w.writes)
	}
	for i, out := range decodeAll(t, &w.Buffer, len(in)) {
		if !sameFrame(in[i], out) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, in[i], out)
		}
	}
}

func TestRejectsOversizedPayload(t *testing.T) {
	w := NewVectorWriter(io.Discard)
	if _, err := w.WriteBatch([]*Msg{{Type: TData, Payload: make([]byte, MaxPayload+1)}}); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestRejectsLongAppName(t *testing.T) {
	w := NewVectorWriter(io.Discard)
	if _, err := w.WriteBatch([]*Msg{{Type: TData, App: strings.Repeat("x", 300)}}); err == nil {
		t.Fatal("expected error for long app name")
	}
}

func TestReaderRejectsCorruptFrames(t *testing.T) {
	cases := [][]byte{
		{0, 0, 0, 0},                   // zero-length frame
		{0xff, 0xff, 0xff, 0xff},       // absurd length
		{0, 0, 0, 3, byte(TData), 200}, // app length beyond frame
	}
	for i, c := range cases {
		r := NewReader(bytes.NewReader(c))
		if _, err := r.Read(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestReaderEOFMidFrame(t *testing.T) {
	stream := encode(t, &Msg{Type: TData, App: "a", Payload: []byte("0123456789")})
	r := NewReader(bytes.NewReader(stream[:len(stream)-3]))
	if _, err := r.Read(); err == nil {
		t.Fatal("expected error on truncated frame")
	}
}

func TestCountCodec(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 1 << 20} {
		got, err := DecodeCount(EncodeCount(n))
		if err != nil || got != n {
			t.Fatalf("count %d round trip: got %d err %v", n, got, err)
		}
	}
	if _, err := DecodeCount(nil); err == nil {
		t.Fatal("expected error for empty count")
	}
}

// The TDone id list round-trips at every varint width, and a payload
// that is not exactly a count and that many ids is refused — including a
// count the payload could not hold, before anything is allocated for it.
func TestIDsCodec(t *testing.T) {
	for _, ids := range [][]uint64{{}, {7}, {0, 127, 128, 1 << 40, ^uint64(0)}} {
		got, err := DecodeIDs(EncodeIDs(ids))
		if err != nil || len(got) != len(ids) {
			t.Fatalf("%v round trip: got %v err %v", ids, got, err)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("%v round trip: got %v", ids, got)
			}
		}
	}
	good := EncodeIDs([]uint64{1, 300})
	for name, p := range map[string][]byte{
		"empty":          nil,
		"count too big":  {0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"truncated id":   good[:len(good)-1],
		"trailing byte":  append(append([]byte{}, good...), 0),
		"bad count":      {0x80},
		"count over ids": {3, 1, 2},
	} {
		if ids, err := DecodeIDs(p); err != ErrCorrupt {
			t.Errorf("%s: DecodeIDs = %v, %v; want ErrCorrupt", name, ids, err)
		}
	}
}

// hugeRouteFanouts are TFanout payloads of an empty Inner and one route
// whose hop count is far past the bytes that follow: decoding them once
// panicked ("makeslice: cap out of range") or ran the process out of
// memory on the box's reader goroutine.
var hugeRouteFanouts = [][]byte{
	binary.AppendUvarint([]byte{0, 1}, 1<<62),
	binary.AppendUvarint([]byte{0, 1}, 1<<31),
}

func TestDecodeFanoutBoundsRouteLength(t *testing.T) {
	for _, p := range hugeRouteFanouts {
		if f, err := DecodeFanout(p); err != ErrCorrupt {
			t.Errorf("DecodeFanout(%x) = %+v, %v; want ErrCorrupt", p, f, err)
		}
	}
}

func TestStringsCodec(t *testing.T) {
	cases := [][]string{nil, {}, {"one"}, {"a", "", "c:9000"}}
	for _, c := range cases {
		got, err := DecodeStrings(EncodeStrings(c))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c) {
			t.Fatalf("length mismatch %v vs %v", got, c)
		}
		for i := range c {
			if got[i] != c[i] {
				t.Fatalf("mismatch %v vs %v", got, c)
			}
		}
	}
	if _, err := DecodeStrings([]byte{0xff}); err == nil {
		t.Fatal("expected error for corrupt strings payload")
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(app string, req, source, seq uint64, payload []byte) bool {
		if len(app) > maxAppLen {
			app = app[:maxAppLen]
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		var buf bytes.Buffer
		in := &Msg{Type: TData, App: app, Req: req, Source: source, Seq: seq, Payload: payload}
		if _, err := NewVectorWriter(&buf).WriteBatch([]*Msg{in}); err != nil {
			return false
		}
		out, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		return sameFrame(in, out)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A maximum-size payload with a long application name must round-trip: the
// reader's frame bound has to leave room for the full header.
func TestMaxPayloadWithLongAppName(t *testing.T) {
	app := strings.Repeat("a", maxAppLen)
	stream := encode(t, &Msg{Type: TData, App: app, Payload: make([]byte, MaxPayload)})
	out, err := NewReader(bytes.NewReader(stream)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.App != app || len(out.Payload) != MaxPayload {
		t.Fatal("max frame round trip failed")
	}
}
