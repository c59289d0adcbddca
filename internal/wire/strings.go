package wire

import (
	"encoding/binary"
	"slices"
)

// EncodeStrings serialises a string list (route payloads for THello).
func EncodeStrings(ss []string) []byte {
	return appendStrings(nil, ss)
}

// DecodeStrings parses a payload produced by EncodeStrings.
func DecodeStrings(p []byte) ([]string, error) {
	out, rest, err := readStrings(p)
	if err != nil || len(rest) != 0 {
		return nil, ErrCorrupt
	}
	return out, nil
}

// appendStrings appends a string list to buf: its count, then each
// string after its length. THello routes and each TFanout route use it.
func appendStrings(buf []byte, ss []string) []byte {
	size := binary.MaxVarintLen64
	for _, s := range ss {
		size += binary.MaxVarintLen64 + len(s)
	}
	buf = slices.Grow(buf, size)
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// readStrings parses one string list written by appendStrings off the
// front of p and returns the bytes after it. A count larger than the
// bytes left (each string takes at least its length byte) is corrupt, so
// a peer cannot make it allocate more than it sent.
func readStrings(p []byte) ([]string, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, nil, ErrCorrupt
	}
	p = p[n:]
	if count > uint64(len(p)) {
		return nil, nil, ErrCorrupt
	}
	out := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		slen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < slen {
			return nil, nil, ErrCorrupt
		}
		p = p[n:]
		out = append(out, string(p[:slen]))
		p = p[slen:]
	}
	return out, p, nil
}
