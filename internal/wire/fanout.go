package wire

import "encoding/binary"

// TFanout frames implement the paper's proposed one-to-many extension (§5:
// "application-specific middleboxes can implement efficient versions of
// multicast or broadcast protocols"): a master sends a single copy of a
// payload plus per-target remaining routes; each box forwards one copy per
// distinct next hop, so a broadcast crosses every link once instead of once
// per target.
const TFanout Type = 100

// FanoutPayload is the body of a TFanout frame.
type FanoutPayload struct {
	// Inner is the application payload to deliver to every target.
	Inner []byte
	// Routes holds, per target, the remaining addresses: intermediate boxes
	// first, the target's own listener last.
	Routes [][]string
}

// Encode serialises the payload: Inner after its length, then the route
// count and each route as a string list.
func (f *FanoutPayload) Encode() []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(f.Inner))
	buf = binary.AppendUvarint(buf, uint64(len(f.Inner)))
	buf = append(buf, f.Inner...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Routes)))
	for _, r := range f.Routes {
		buf = appendStrings(buf, r)
	}
	return buf
}

// DecodeFanout parses a TFanout payload. Inner borrows from p — no
// copy is made — so the caller must keep p's backing buffer alive
// (Retain the frame's Buf) for as long as Inner is in use.
func DecodeFanout(p []byte) (*FanoutPayload, error) {
	innerLen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p[n:])) < innerLen {
		return nil, ErrCorrupt
	}
	p = p[n:]
	out := &FanoutPayload{Inner: p[:innerLen:innerLen]}
	p = p[innerLen:]
	routeCount, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	p = p[n:]
	if routeCount > uint64(len(p)) {
		return nil, ErrCorrupt
	}
	for i := uint64(0); i < routeCount; i++ {
		route, rest, err := readStrings(p)
		if err != nil {
			return nil, err
		}
		out.Routes = append(out.Routes, route)
		p = rest
	}
	if len(p) != 0 {
		return nil, ErrCorrupt
	}
	return out, nil
}

// Split is what a sender of the payload owes each distinct first address
// of its routes, one call to hop apiece: deliver says a route ends there —
// the address is a target's own listener and gets Inner as a TData frame —
// and onward holds the remainders of the routes that go on through it, for
// one TFanout envelope. An empty route is corrupt, and then no hop is called.
func (f *FanoutPayload) Split(hop func(next string, deliver bool, onward [][]string) error) error {
	byNext := make(map[string][][]string)
	for _, route := range f.Routes {
		if len(route) == 0 {
			return ErrCorrupt
		}
		byNext[route[0]] = append(byNext[route[0]], route[1:])
	}
	for next, rests := range byNext {
		var onward [][]string
		for _, rest := range rests {
			if len(rest) > 0 {
				onward = append(onward, rest)
			}
		}
		if err := hop(next, len(onward) < len(rests), onward); err != nil {
			return err
		}
	}
	return nil
}
