package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeFrame drives Reader.Read with arbitrary stream bytes. The
// decoder sits directly on the network, so it must reject any corrupt
// frame with an error — never a panic, never an over-allocation (the
// frameLen bound check) — and keep the stream position consistent
// enough to fail deterministically on the next read.
func FuzzDecodeFrame(f *testing.F) {
	// A valid single-frame stream, a truncation, and corruptions of each
	// header region seed the interesting decode paths.
	valid := encode(f, &Msg{Type: TData, App: "search", Req: 7, Source: 3, Seq: 1, Payload: []byte("part")})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 2, 9, 0})
	// The recovery/migration control frames (TExpect, TRedirect, TCancel),
	// a completion notice and a fanout frame carrying nested routes.
	f.Add(encode(f, &Msg{Type: TExpect, App: "search", Req: 7, Payload: EncodeCount(3)}))
	f.Add(encode(f, &Msg{Type: TRedirect, App: "search", Req: 7, Payload: EncodeCount(2)}))
	f.Add(encode(f, &Msg{Type: TCancel, App: "search", Req: 7}))
	f.Add(encode(f, &Msg{Type: TDone, App: "search", Payload: EncodeIDs([]uint64{7, 8, 1 << 40})}))
	fanout := &FanoutPayload{Inner: []byte("part"), Routes: [][]string{{"127.0.0.1:1", "127.0.0.1:2"}, {"127.0.0.1:3"}}}
	f.Add(encode(f, &Msg{Type: TFanout, App: "search", Req: 7, Payload: fanout.Encode()}))
	// A batched stream the shape SendAll's vectored write path produces:
	// several frames of one request back-to-back in a single flush.
	f.Add(encode(f,
		&Msg{Type: THello, App: "search", Req: 7, Source: 3, Payload: EncodeStrings([]string{"127.0.0.1:9"})},
		&Msg{Type: TData, App: "search", Req: 7, Source: 3, Seq: 0, Payload: []byte("p0")},
		&Msg{Type: TData, App: "search", Req: 7, Source: 3, Seq: 1, Payload: []byte("p1")},
		&Msg{Type: TEnd, App: "search", Req: 7, Source: 3, Seq: 2},
		&Msg{Type: TCancel, App: "search", Req: 7},
	))

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := NewReader(bytes.NewReader(stream))
		for {
			m, err := r.Read()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(m.App) > maxAppLen {
				t.Fatalf("decoded app name longer than maxAppLen: %d", len(m.App))
			}
			if len(m.Payload) > MaxPayload {
				t.Fatalf("decoded payload exceeds MaxPayload: %d", len(m.Payload))
			}
			// A worker decodes a TDone's id list straight off the frame:
			// whatever the payload, no panic and no more ids than bytes.
			if ids, err := DecodeIDs(m.Payload); err == nil && len(ids) > len(m.Payload) {
				t.Fatalf("%d ids decoded from a %d-byte payload", len(ids), len(m.Payload))
			}
		}
	})
}

// FuzzEncodeDecode round-trips arbitrary messages through VectorWriter
// and Reader: everything the writer accepts must decode back bit-identical,
// and everything outside the protocol limits must be rejected at encode
// time.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(byte(TData), "search", uint64(7), uint64(3), uint64(1), []byte("part"))
	f.Add(byte(THello), "", uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(byte(TError), "mapred", uint64(1<<63), uint64(42), uint64(9), []byte("boom"))
	f.Add(byte(0), "a\x00b", uint64(1), uint64(2), uint64(3), []byte{0xff, 0x00})
	// Control and fanout frames with their real payload encodings.
	f.Add(byte(TExpect), "search", uint64(7), uint64(0), uint64(0), EncodeCount(3))
	f.Add(byte(TRedirect), "search", uint64(7), uint64(0), uint64(0), EncodeCount(2))
	f.Add(byte(TCancel), "mapred", uint64(7), uint64(0), uint64(0), []byte{})
	f.Add(byte(TDone), "mapred", uint64(0), uint64(0), uint64(0), EncodeIDs([]uint64{7, 8, 1 << 40}))
	fanout := &FanoutPayload{Inner: []byte("part"), Routes: [][]string{{"127.0.0.1:1"}, {"127.0.0.1:2", "127.0.0.1:3"}}}
	f.Add(byte(TFanout), "search", uint64(7), uint64(0), uint64(0), fanout.Encode())

	f.Fuzz(func(t *testing.T, typ byte, app string, req, source, seq uint64, payload []byte) {
		in := &Msg{Type: Type(typ), App: app, Req: req, Source: source, Seq: seq, Payload: payload}
		var buf bytes.Buffer
		_, err := NewVectorWriter(&buf).WriteBatch([]*Msg{in})
		if len(app) > maxAppLen {
			if err == nil {
				t.Fatalf("writer accepted %d-byte app name", len(app))
			}
			return
		}
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		out, err := NewReader(bytes.NewReader(buf.Bytes())).Read()
		if err != nil {
			t.Fatalf("decode of a written frame failed: %v", err)
		}
		if !sameFrame(in, out) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	})
}

// FuzzDecodeFanout drives DecodeFanout, which a box runs on a TFanout
// payload straight off the network: no input may panic, and whatever it
// accepts must decode again unchanged from its own Encode.
func FuzzDecodeFanout(f *testing.F) {
	fanout := &FanoutPayload{Inner: []byte("part"), Routes: [][]string{{"127.0.0.1:1", "127.0.0.1:2"}, {"127.0.0.1:3"}, {}}}
	f.Add(fanout.Encode())
	f.Add([]byte{})
	for _, p := range hugeRouteFanouts {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		in, err := DecodeFanout(p)
		if err != nil {
			if err != ErrCorrupt {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		out, err := DecodeFanout(in.Encode())
		if err != nil {
			t.Fatalf("decode of an encoded payload failed: %v", err)
		}
		if !bytes.Equal(in.Inner, out.Inner) || !reflect.DeepEqual(in.Routes, out.Routes) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	})
}
