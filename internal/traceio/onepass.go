package traceio

import (
	"strings"

	"eventorder/internal/model"
)

// decodeCanonical decodes src in one pass, without reflection, when it lies
// in the canonical subset of the trace format that SaveExecution writes,
// indented or compacted, and nothing but JSON whitespace follows the
// object. It reports false for anything else, and LoadExecution then runs
// the reference decode, so accepted inputs, results and error text do not
// depend on which path ran.
func decodeCanonical(src string) (*model.Execution, bool) {
	x, n, ok := DecodeCanonicalPrefix(src)
	if !ok || strings.TrimLeft(src[n:], " \t\n\r") != "" {
		return nil, false
	}
	return x, true
}

// DecodeCanonicalPrefix decodes the object at the start of src in one pass,
// without reflection, when it lies in the canonical subset of the trace
// format that SaveExecution writes, indented or compacted, and returns the
// execution and the length of src up to and including the object's closing
// brace. The subset is:
//
//   - only the keys SaveExecution writes, in exact case, each at most once
//     per object, in any order;
//   - strings with no backslash, control byte or non-ASCII byte;
//   - integers with no fraction, exponent, leading zero or minus zero that
//     fit an int;
//   - true and false, and JSON whitespace anywhere between tokens.
//
// The subset is JSON, so the object is a valid JSON value. The decoder runs
// the reference decode's range checks and model.Validate, and builds the
// execution LoadExecution would build from the object: missing keys take
// zero values and an empty array yields a nil slice. It reports false for
// anything else (null, escapes, unknown or repeated keys, floats, and every
// semantic error). What follows the object is not read.
func DecodeCanonicalPrefix(src string) (*model.Execution, int, bool) {
	d := onePass{src: src}
	x := &model.Execution{
		Sems:   map[string]model.Semaphore{},
		EvInit: map[string]bool{},
	}
	version := 0
	var seen keySet
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.key(&seen) {
		case "version":
			version = d.int()
		case "procs":
			for more := d.open('[', ']'); more; more = d.next(']') {
				x.Procs = append(x.Procs, d.proc(model.ProcID(len(x.Procs))))
			}
		case "events":
			for more := d.open('[', ']'); more; more = d.next(']') {
				x.Events = append(x.Events, d.event(model.EventID(len(x.Events))))
			}
		case "ops":
			for more := d.open('[', ']'); more; more = d.next(']') {
				x.Ops = append(x.Ops, d.op(model.OpID(len(x.Ops))))
			}
		case "sems":
			for more := d.open('[', ']'); more; more = d.next(']') {
				s := d.sem()
				x.Sems[s.Name] = s
			}
		case "eventVars":
			for more := d.open('{', '}'); more; more = d.next('}') {
				name := d.str()
				d.must(':')
				if _, dup := x.EvInit[name]; dup {
					d.fail()
				}
				x.EvInit[name] = d.bool()
			}
		case "order":
			x.Order = d.ids()
		default:
			d.fail()
		}
	}
	if d.bad || version != FormatVersion {
		return nil, 0, false
	}
	for i := range x.Events {
		e := &x.Events[i]
		if e.Proc < 0 || int(e.Proc) >= len(x.Procs) || !inRange(e.Ops, len(x.Ops)) {
			return nil, 0, false
		}
	}
	if !inRange(x.Order, len(x.Ops)) || model.Validate(x) != nil {
		return nil, 0, false
	}
	return x, d.pos, true
}

func inRange(ids []model.OpID, n int) bool {
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return false
		}
	}
	return true
}

// onePass is decodeCanonical's cursor. The first byte outside the subset
// sets bad and moves pos to the end, so every later read fails too and
// every loop over members ends.
type onePass struct {
	src string
	pos int
	bad bool
	// buf backs every op-id list. Each list is a capacity-limited window of
	// it, and a window taken before buf grows keeps the old array, so the
	// lists of one trace share a few allocations instead of one each.
	buf []model.OpID
}

// noKind marks an event or op whose kind key has not been read.
const noKind model.OpKind = -1

func (d *onePass) proc(id model.ProcID) model.Proc {
	p := model.Proc{ID: id}
	var seen keySet
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.key(&seen) {
		case "name":
			p.Name = d.str()
		case "ops":
			p.Ops = d.ids()
		case "parent":
			p.Parent = model.ProcID(d.int())
		case "forkOp":
			p.ForkOp = model.OpID(d.int())
		default:
			d.fail()
		}
	}
	return p
}

func (d *onePass) event(id model.EventID) model.Event {
	e := model.Event{ID: id, Kind: noKind}
	var seen keySet
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.key(&seen) {
		case "proc":
			e.Proc = model.ProcID(d.int())
		case "kind":
			e.Kind = d.kind()
		case "obj":
			e.Obj = d.str()
		case "label":
			e.Label = d.str()
		case "ops":
			e.Ops = d.ids()
		default:
			d.fail()
		}
	}
	if e.Kind == noKind {
		d.fail()
	}
	return e
}

func (d *onePass) op(id model.OpID) model.Op {
	op := model.Op{ID: id, Kind: noKind}
	var seen keySet
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.key(&seen) {
		case "proc":
			op.Proc = model.ProcID(d.int())
		case "event":
			op.Event = model.EventID(d.int())
		case "kind":
			op.Kind = d.kind()
		case "obj":
			op.Obj = d.str()
		case "stmt":
			op.Stmt = d.str()
		default:
			d.fail()
		}
	}
	if op.Kind == noKind {
		d.fail()
	}
	return op
}

func (d *onePass) sem() model.Semaphore {
	s := model.Semaphore{Kind: model.SemCounting}
	var seen keySet
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.key(&seen) {
		case "name":
			s.Name = d.str()
		case "init":
			s.Init = d.int()
		case "binary":
			if d.bool() {
				s.Kind = model.SemBinary
			}
		default:
			d.fail()
		}
	}
	return s
}

// ids reads an array of op ids into a window of d.buf; an empty array
// yields nil.
func (d *onePass) ids() []model.OpID {
	start := len(d.buf)
	for more := d.open('[', ']'); more; more = d.next(']') {
		d.buf = append(d.buf, model.OpID(d.int()))
	}
	if len(d.buf) == start {
		return nil
	}
	return d.buf[start:len(d.buf):len(d.buf)]
}

// kind reads an op kind's wire name; the map lookup does not allocate.
func (d *onePass) kind() model.OpKind {
	k, ok := kindByName[d.str()]
	if !ok {
		d.fail()
		return noKind
	}
	return k
}

func (d *onePass) fail() {
	d.bad = true
	d.pos = len(d.src)
}

func (d *onePass) space() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes b if it comes next.
func (d *onePass) eat(b byte) bool {
	d.space()
	if d.pos < len(d.src) && d.src[d.pos] == b {
		d.pos++
		return true
	}
	return false
}

func (d *onePass) must(b byte) {
	if !d.eat(b) {
		d.fail()
	}
}

// open consumes an object's or array's opening byte and reports whether a
// member follows.
func (d *onePass) open(open, close byte) bool {
	d.must(open)
	return !d.bad && !d.eat(close)
}

// next consumes what follows a member: a comma (true, another member
// follows) or the closing byte (false).
func (d *onePass) next(close byte) bool {
	if d.eat(',') {
		return true
	}
	d.must(close)
	return false
}

// key reads a member's key and its colon, failing on a key seen before in
// the same object; the caller fails on keys it does not know.
func (d *onePass) key(seen *keySet) string {
	k := d.str()
	d.must(':')
	if !seen.add(k) {
		d.fail()
	}
	return k
}

// str reads a string with no backslash, control byte or non-ASCII byte, as
// a substring of the input.
func (d *onePass) str() string {
	if !d.eat('"') {
		d.fail()
		return ""
	}
	start := d.pos
	for ; d.pos < len(d.src); d.pos++ {
		switch b := d.src[d.pos]; {
		case b == '"':
			d.pos++
			return d.src[start : d.pos-1]
		case b < 0x20 || b == '\\' || b >= 0x80:
			d.fail()
			return ""
		}
	}
	d.fail()
	return ""
}

// int reads an integer as strconv.Itoa writes it: no fraction, exponent,
// leading zero or minus zero. Up to 18 digits always fit an int64; the
// round trip through int checks the rest.
func (d *onePass) int() int {
	d.space()
	neg := d.pos < len(d.src) && d.src[d.pos] == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	var v int64
	for ; d.pos < len(d.src) && '0' <= d.src[d.pos] && d.src[d.pos] <= '9'; d.pos++ {
		v = v*10 + int64(d.src[d.pos]-'0')
	}
	if n := d.pos - start; n == 0 || n > 18 || d.src[start] == '0' && (n > 1 || neg) {
		d.fail()
		return 0
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *onePass) bool() bool {
	d.space()
	switch rest := d.src[d.pos:]; {
	case strings.HasPrefix(rest, "true"):
		d.pos += len("true")
		return true
	case strings.HasPrefix(rest, "false"):
		d.pos += len("false")
		return false
	}
	d.fail()
	return false
}

// keySet holds the keys of one JSON object. Each object of the subset has
// at most seven known keys, and an unknown key fails the decode, so eight
// slots never overflow before a failure.
type keySet struct {
	n    int
	keys [8]string
}

// add records k and reports whether it was new.
func (s *keySet) add(k string) bool {
	for _, seen := range s.keys[:s.n] {
		if seen == k {
			return false
		}
	}
	if s.n == len(s.keys) {
		return false
	}
	s.keys[s.n] = k
	s.n++
	return true
}
