package search

import (
	"encoding/binary"
	"errors"
)

// Query is a sub-request sent by the frontend to every backend.
type Query struct {
	// Terms are the search words.
	Terms []string
	// Limit caps the per-backend result count (0 = no cap).
	Limit int
	// WithText attaches document text to results (for categorise).
	WithText bool
}

var errBadQuery = errors.New("search: malformed query")

// Encode serialises the query.
func (q *Query) Encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(q.Limit))
	flags := uint64(0)
	if q.WithText {
		flags = 1
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(q.Terms)))
	for _, t := range q.Terms {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return buf
}

// DecodeQuery parses an encoded query.
func DecodeQuery(p []byte) (*Query, error) {
	q := &Query{}
	limit, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errBadQuery
	}
	p = p[n:]
	q.Limit = int(limit)
	flags, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errBadQuery
	}
	p = p[n:]
	q.WithText = flags&1 != 0
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errBadQuery
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		tlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p[n:])) < tlen {
			return nil, errBadQuery
		}
		p = p[n:]
		q.Terms = append(q.Terms, string(p[:tlen]))
		p = p[tlen:]
	}
	if len(p) != 0 {
		return nil, errBadQuery
	}
	return q, nil
}
