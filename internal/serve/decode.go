package serve

// Request decoding. Every JSON body is read whole into a pooled buffer,
// bounded by Config.MaxBodyBytes. A /predict body in canonical form —
// the form the service's clients send — is then decoded by a
// single-pass scanner straight into PredictRequest, without reflection;
// any other body, and every other request type, goes to encoding/json
// on the same bytes. The scanner accepts only bodies on which it
// decodes exactly what encoding/json decodes, so the fast path changes
// no result and no error text (FuzzPredictScanner checks this). Neither
// path accepts a /predict field that PredictRequest does not have: the
// scanner hands such a body over, and encoding/json refuses it with 400
// bad_json, so a misspelled field never answers with its default.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
)

// decodeJSON reads a request body whole, bounded by Config.MaxBodyBytes,
// and decodes it into v. It answers 413 with a typed error body when
// the body is larger than the bound, however early its JSON value ends,
// and 400 when it is malformed; it reports whether the handler should
// proceed. As with json.Decoder, bytes after the first JSON value are
// ignored. A *PredictRequest in canonical form is filled by the
// scanner; every other body is decoded by encoding/json.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	bs := bodyScanners.Get().(*bodyScanner)
	defer bodyScanners.Put(bs)
	bs.buf.Reset()
	if _, err := bs.buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpErrorCode(w, http.StatusRequestEntityTooLarge, "oversized",
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		httpErrorCode(w, http.StatusBadRequest, "bad_json", "bad request body: %v", err)
		return false
	}
	body := bs.buf.Bytes()
	req, isPredict := v.(*PredictRequest)
	if isPredict && bs.predict(body, req) {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if isPredict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		httpErrorCode(w, http.StatusBadRequest, "bad_json", "bad request body: %v", err)
		return false
	}
	return true
}

// bodyScanners pools the per-request decoding state, so a steady
// stream of requests reads and scans without growing fresh buffers.
var bodyScanners = sync.Pool{New: func() any { return new(bodyScanner) }}

// bodyScanner holds a request body and decodes the canonical form of a
// /predict body from it in one pass:
//   - one JSON object, whose "queries" member, if any, is an array of
//     objects;
//   - keys spelled exactly as the struct tags, each at most once per
//     object;
//   - strings of printable ASCII with no escapes;
//   - integers with no fraction, exponent, leading zero or minus zero,
//     of at most 18 digits, so every one fits an int64;
//   - no null.
//
// Whitespace between tokens is allowed. On anything else predict
// reports false: case-folded, unknown or duplicate keys, escapes,
// non-ASCII bytes, null, and malformed JSON all go to encoding/json.
type bodyScanner struct {
	buf bytes.Buffer // the body, read whole

	b []byte // the body being scanned
	i int    // scan position in b

	// Row scratch: a batch's rows and root overrides collect here and
	// are copied out once the queries array closes.
	rows  []BatchQuery
	roots []rowRoot
}

// rowRoot is one row's root override, held until the queries array
// closes and every row's root can point into one backing array.
type rowRoot struct{ row, root int }

// The members of a /predict object, as bits of a per-object mask of
// the keys seen so far. Rows hold every member but queries.
const (
	fCluster uint16 = 1 << iota
	fNodes
	fProfile
	fSeed
	fOp
	fAlg
	fM
	fRoot
	fDegree
	fSegment
	fQueries

	rowFields = fQueries - 1
)

// vocabulary holds the words /predict bodies name — collectives,
// algorithms, clusters and profiles — so scanned values come back as
// these strings instead of fresh copies.
var vocabulary = func() map[string]string {
	m := map[string]string{}
	for _, w := range []string{
		"scatter", "gather", "bcast", "reduce",
		"linear", "binomial", "binary", "chain",
		"table1", "table1hetero", "lam", "mpich", "ideal",
	} {
		m[w] = w
	}
	return m
}()

// predict scans body into req, reporting whether body is in canonical
// form; req is written only when it is. Bytes after the top-level
// object are not read.
func (s *bodyScanner) predict(body []byte, req *PredictRequest) bool {
	s.b, s.i = body, 0
	var top BatchQuery
	root, _, queries, ok := s.object(&top, fQueries|rowFields)
	if !ok {
		return false
	}
	req.platformRequest = platformRequest{Cluster: top.Cluster, Nodes: top.Nodes, Profile: top.Profile, Seed: top.Seed}
	req.Op, req.Alg, req.M, req.Root = top.Op, top.Alg, top.M, root
	req.Degree, req.Segment, req.Queries = top.Degree, top.Segment, queries
	return true
}

// object scans one object into q, allowing the members in allowed. The
// root member, an int at the top level and a pointer in a row, is
// returned rather than stored, with the mask of the members seen; the
// queries member, allowed only at the top level, is returned too.
func (s *bodyScanner) object(q *BatchQuery, allowed uint16) (root int, seen uint16, queries []BatchQuery, ok bool) {
	if !s.eat('{') {
		return 0, 0, nil, false
	}
	if s.eat('}') {
		return 0, 0, nil, true
	}
	for more := true; more; {
		var f uint16
		if f, ok = s.key(&seen, allowed); !ok {
			return 0, 0, nil, false
		}
		switch f {
		case fCluster:
			q.Cluster, ok = s.str()
		case fNodes:
			q.Nodes, ok = s.intValue()
		case fProfile:
			q.Profile, ok = s.str()
		case fSeed:
			q.Seed, ok = s.int64Value()
		case fOp:
			q.Op, ok = s.str()
		case fAlg:
			q.Alg, ok = s.str()
		case fM:
			q.M, ok = s.intValue()
		case fRoot:
			root, ok = s.intValue()
		case fDegree:
			q.Degree, ok = s.intValue()
		case fSegment:
			q.Segment, ok = s.intValue()
		case fQueries:
			queries, ok = s.queries()
		}
		if ok {
			more, ok = s.next('}')
		}
		if !ok {
			return 0, 0, nil, false
		}
	}
	return root, seen, queries, true
}

// queries scans a queries array. The rows are copied out into a slice
// of exactly their number, non-nil even when empty, and every root
// override points into one backing array: a row allocates nothing.
func (s *bodyScanner) queries() ([]BatchQuery, bool) {
	if !s.eat('[') {
		return nil, false
	}
	s.rows, s.roots = s.rows[:0], s.roots[:0]
	if !s.eat(']') {
		for more := true; more; {
			s.rows = append(s.rows, BatchQuery{})
			i := len(s.rows) - 1
			root, seen, _, ok := s.object(&s.rows[i], rowFields)
			if ok && seen&fRoot != 0 {
				s.roots = append(s.roots, rowRoot{row: i, root: root})
			}
			if ok {
				more, ok = s.next(']')
			}
			if !ok {
				return nil, false
			}
		}
	}
	out := make([]BatchQuery, len(s.rows))
	copy(out, s.rows)
	clear(s.rows)
	if len(s.roots) > 0 {
		roots := make([]int, len(s.roots))
		for i, r := range s.roots {
			roots[i] = r.root
			out[r.row].Root = &roots[i]
		}
	}
	return out, true
}

// skip advances past whitespace and returns the next byte (0 at the
// end of the body).
func (s *bodyScanner) skip() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes the next token if it is the byte c.
func (s *bodyScanner) eat(c byte) bool {
	if s.skip() != c {
		return false
	}
	s.i++
	return true
}

// next consumes what follows an object member or array element: a
// comma (more is true) or the closing byte.
func (s *bodyScanner) next(closing byte) (more, ok bool) {
	switch s.skip() {
	case ',':
		s.i++
		return true, true
	case closing:
		s.i++
		return false, true
	}
	return false, false
}

// key scans a member's key and the colon after it and returns the
// member's bit. It fails on keys outside allowed — unknown ones and
// case variants, which encoding/json would fold onto a field — and on
// keys seen before in the object.
func (s *bodyScanner) key(seen *uint16, allowed uint16) (uint16, bool) {
	k, ok := s.raw()
	if !ok || !s.eat(':') {
		return 0, false
	}
	var f uint16
	switch string(k) {
	case "cluster":
		f = fCluster
	case "nodes":
		f = fNodes
	case "profile":
		f = fProfile
	case "seed":
		f = fSeed
	case "op":
		f = fOp
	case "alg":
		f = fAlg
	case "m":
		f = fM
	case "root":
		f = fRoot
	case "degree":
		f = fDegree
	case "segment":
		f = fSegment
	case "queries":
		f = fQueries
	}
	if f&allowed == 0 || f&*seen != 0 {
		return 0, false
	}
	*seen |= f
	return f, true
}

// raw scans a string of printable ASCII with no escapes and returns
// its bytes, which alias the body.
func (s *bodyScanner) raw() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			k := s.b[s.i:j]
			s.i = j + 1
			return k, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str scans a string value. Vocabulary words come back interned and
// anything else as a copy: no result aliases the pooled body.
func (s *bodyScanner) str() (string, bool) {
	b, ok := s.raw()
	if !ok {
		return "", false
	}
	if w, ok := vocabulary[string(b)]; ok {
		return w, true
	}
	return string(b), true
}

// int64Value scans an integer value of at most 18 digits with no fraction,
// exponent, leading zero or minus zero.
func (s *bodyScanner) int64Value() (int64, bool) {
	s.skip()
	j := s.i
	neg := j < len(s.b) && s.b[j] == '-'
	if neg {
		j++
	}
	start := j
	var v int64
	for ; j < len(s.b) && j-start < 19 && '0' <= s.b[j] && s.b[j] <= '9'; j++ {
		v = 10*v + int64(s.b[j]-'0')
	}
	if n := j - start; n == 0 || n > 18 || s.b[start] == '0' && (n > 1 || neg) {
		return 0, false
	}
	if j < len(s.b) && (s.b[j] == '.' || s.b[j] == 'e' || s.b[j] == 'E') {
		return 0, false
	}
	s.i = j
	if neg {
		v = -v
	}
	return v, true
}

// intValue scans an integer value that fits an int.
func (s *bodyScanner) intValue() (int, bool) {
	v, ok := s.int64Value()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}
