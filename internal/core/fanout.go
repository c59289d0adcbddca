package core

import "netagg/internal/wire"

// handleFanout implements the box side of the one-to-many extension (§5):
// the box forwards exactly one copy of the payload towards each distinct
// next hop. Targets whose route ends here-next (a single remaining address)
// receive the inner payload as a TData frame on their own listener; longer
// routes are re-bundled into one TFanout per next-hop box.
func (b *Box) handleFanout(m *wire.Msg) error {
	f, err := wire.DecodeFanout(m.Payload)
	if err != nil {
		return err
	}
	copies := 0
	err = f.Split(func(next string, deliver bool, onward [][]string) error {
		copies++
		if deliver {
			// f.Inner borrows from m.Payload (DecodeFanout is zero-copy),
			// so the frame's buffer rides along for the send queue; the
			// caller (serveFrame) keeps the frame alive until we return.
			b.send(next, &wire.Msg{
				Type: wire.TData, App: m.App, Req: m.Req,
				Source: b.cfg.ID, Payload: f.Inner, Buf: m.Buf,
			})
		}
		if len(onward) > 0 {
			sub := wire.FanoutPayload{Inner: f.Inner, Routes: onward}
			b.send(next, &wire.Msg{
				Type: wire.TFanout, App: m.App, Req: m.Req,
				Source: b.cfg.ID, Payload: sub.Encode(),
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.stats.FanoutCopies += int64(copies)
	b.mu.Unlock()
	return nil
}
