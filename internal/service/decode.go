package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"

	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

// Request body decoding. A request body is read whole, at most
// Config.MaxBodyBytes of it, and decoded strictly: one JSON object, no
// unknown fields, nothing but whitespace after it. A trace request's body is
// mostly its "execution" member, so that member is decoded in place by
// traceio's one-pass trace decoder and only the rest of the body goes
// through encoding/json; every other body takes the reference decode.

// request is a request body type; each embeds an ExecutionSource.
type request interface {
	source() *ExecutionSource
}

func (src *ExecutionSource) source() *ExecutionSource { return src }

// errTrailingData refuses a body with more than whitespace after its object.
var errTrailingData = errors.New("trailing data after the request object")

// decode reads r's body into req, a zero request value. On failure it writes
// the error response (413 for a body over the size limit, 400 otherwise)
// and returns false. The decode itself is recorded as the "decode" phase.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req request) bool {
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = tracerFrom(r.Context()).timePhase("decode", func() error {
			_, err := decodeRequest(body, req)
			return err
		})
	}
	if err != nil {
		writeError(w, r, bodyStatus(err), fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

// bodyStatus maps a refused request body to its HTTP status.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads r's body whole into a buffer sized from its Content-Length.
// A body over limit bytes fails with *http.MaxBytesError, before any read
// when its declared length is already over.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// ReadFrom grows the buffer unless MinRead bytes stay free.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeRequest decodes body into req, a zero request value, and reports
// whether the one-pass path ran. That path takes a body whose "execution"
// member cutExecution cuts out: the rest of the body goes through
// decodeReference, Execution is set to the member's bytes, and the decoded
// execution rides along to resolveExecution. Every other body, and every
// error in the rest, takes decodeReference over the whole body.
//
// The two paths agree: the rest holds every other member in order, the cut
// value is valid JSON, and the cut falls on a member boundary, so
// decodeReference accepts the whole body exactly when it accepts the rest,
// and builds the same request. Accepted bodies, request values and error
// text therefore do not depend on which path ran.
func decodeRequest(body []byte, req request) (onePass bool, err error) {
	if c, ok := cutExecution(body); ok {
		src := req.source()
		// A member the rest decode maps to Execution (a case-folded or
		// escaped key) would be overwritten here: leave it to the reference.
		if decodeReference(c.rest, req) == nil && src.Execution == nil {
			src.Execution, src.decoded = c.value, c.x
			return true, nil
		}
		// The reference starts from a zero value, as the caller's was.
		reflect.ValueOf(req).Elem().SetZero()
	}
	return false, decodeReference(body, req)
}

// decodeReference is the strict decode of a request body: one JSON value
// decoded by encoding/json with unknown fields refused, followed by nothing
// but JSON whitespace.
func decodeReference(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailingData
	}
	return nil
}

// cut is a body's top-level "execution" member, cut out of it.
type cut struct {
	value []byte           // the member's value, a subslice of the body
	x     *model.Execution // value, decoded
	rest  []byte           // the body without the member and one adjacent comma
}

// cutExecution scans body's top-level object and cuts out its "execution"
// member when all of these hold:
//
//   - the key of exactly one member is exactly "execution", with no escape;
//   - that member's value is an object traceio.DecodeCanonicalPrefix
//     accepts, which also decodes it;
//   - every other member's value is a string, number, true, false or null;
//   - nothing but JSON whitespace follows the object.
//
// It checks the object's structure, but not the other members' tokens: the
// rest keeps them byte for byte, and decoding the rest checks them. It
// reports false for any other body.
func cutExecution(body []byte) (c cut, ok bool) {
	sc := scanner{b: body}
	// The execution member spans key to end; before and after are the
	// commas next to it, -1 where there is none.
	key, end, before, after := -1, -1, -1, -1
	comma := -1 // the last comma read
	if sc.open() {
		for {
			start := sc.at()
			name, plain := sc.str()
			sc.must(':')
			exec := plain && string(name) == "execution"
			if exec {
				if key >= 0 || !sc.peek('{') {
					return cut{}, false
				}
				x, n, ok := traceio.DecodeCanonicalPrefix(string(body[sc.pos:]))
				if !ok {
					return cut{}, false
				}
				c.value, c.x = body[sc.pos:sc.pos+n:sc.pos+n], x
				sc.pos += n
				key, end, before = start, sc.pos, comma
			} else {
				sc.scalar()
			}
			if !sc.eat(',') {
				break
			}
			comma = sc.pos - 1
			if exec {
				after = comma
			}
		}
		sc.must('}')
	}
	sc.space()
	if sc.bad || sc.pos != len(body) || key < 0 {
		return cut{}, false
	}
	from, to := key, end
	switch {
	case before >= 0:
		from = before
	case after >= 0:
		to = after + 1
	}
	c.rest = make([]byte, 0, len(body)-(to-from))
	c.rest = append(append(c.rest, body[:from]...), body[to:]...)
	return c, true
}

// scanner is cutExecution's cursor. The first byte out of place sets bad
// and moves pos to the end, so every later read fails too.
type scanner struct {
	b   []byte
	pos int
	bad bool
}

func (sc *scanner) fail() {
	sc.bad = true
	sc.pos = len(sc.b)
}

func (sc *scanner) space() {
	for sc.pos < len(sc.b) {
		switch sc.b[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// at skips whitespace and returns the offset of the next token.
func (sc *scanner) at() int {
	sc.space()
	return sc.pos
}

// peek skips whitespace and reports whether b comes next.
func (sc *scanner) peek(b byte) bool {
	return sc.at() < len(sc.b) && sc.b[sc.pos] == b
}

// eat skips whitespace and consumes b if it comes next.
func (sc *scanner) eat(b byte) bool {
	if sc.peek(b) {
		sc.pos++
		return true
	}
	return false
}

func (sc *scanner) must(b byte) {
	if !sc.eat(b) {
		sc.fail()
	}
}

// open consumes the object's opening brace and reports whether a member
// follows.
func (sc *scanner) open() bool {
	sc.must('{')
	return !sc.bad && !sc.eat('}')
}

// str reads a string token and reports whether it has no backslash. A
// backslash escapes the byte after it, so the string ends where a JSON
// string would.
func (sc *scanner) str() (s []byte, plain bool) {
	if !sc.eat('"') {
		sc.fail()
		return nil, false
	}
	start := sc.pos
	plain = true
	for ; sc.pos < len(sc.b); sc.pos++ {
		switch sc.b[sc.pos] {
		case '"':
			sc.pos++
			return sc.b[start : sc.pos-1], plain
		case '\\':
			plain = false
			sc.pos++
		}
	}
	sc.fail()
	return nil, false
}

// scalar skips a string or a run of bytes up to the next delimiter (a
// number, true, false or null in a valid body); an object or array fails.
func (sc *scanner) scalar() {
	if sc.peek('"') {
		sc.str()
		return
	}
	start := sc.pos
	for sc.pos < len(sc.b) {
		switch sc.b[sc.pos] {
		case ' ', '\t', '\n', '\r', ',', ':', '"', '{', '}', '[', ']':
			if sc.pos == start {
				sc.fail()
			}
			return
		}
		sc.pos++
	}
	sc.fail()
}
