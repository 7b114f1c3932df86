package service

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"eventorder/internal/core"
	"eventorder/internal/model"
	"eventorder/internal/plan"
)

// Response encoding. A matrix response carries the six relations over
// every ordered event pair, so turning it into bytes costs as much as a
// small search, and a witness's schedule costs more to format than a
// certified witness costs to find. The writers here append the JSON of a
// MatrixResult, PairResult or WitnessResult body and of the Envelope
// around a job's body in one pass, straight from the engine's bitset rows,
// the witness's steps and the cached body bytes, without reflection or a
// second validating copy. Their bytes equal encoding/json's for the same
// values: json.Marshal for a body, json.NewEncoder(w).Encode (trailing
// newline included) for an envelope, with its HTML-safe string escaping
// and its float64 format. The exported wire types stay the documented
// schema and the reference the tests compare against.

// encodeBufs holds scratch buffers for the writers, so a response encodes
// without growing a fresh buffer each time.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBuf is the largest buffer returned to encodeBufs; a larger one,
// grown by a rare large matrix, is left to the garbage collector.
const maxPooledBuf = 1 << 20

func getEncodeBuf() *[]byte { return encodeBufs.Get().(*[]byte) }

func putEncodeBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		encodeBufs.Put(b)
	}
}

// kindsByName lists the relation kinds sorted by name, the order in which
// encoding/json writes the keys of a map keyed by the names.
var kindsByName = func() []core.RelKind {
	kinds := append([]core.RelKind(nil), core.AllRelKinds...)
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	return kinds
}()

// encodeMatrixResult returns the MatrixResult body appendMatrixResult
// writes, in a buffer of its own.
func encodeMatrixResult(x *model.Execution, m *core.MatrixResult, nodes int64, p *plan.Plan, checkpoint string) []byte {
	buf := getEncodeBuf()
	*buf = appendMatrixResult(*buf, x, m, nodes, p, checkpoint)
	return takeBody(buf)
}

// encodePairResult returns the PairResult body appendPairResult writes,
// in a buffer of its own.
func encodePairResult(rel, a, b string, verdict Verdict, nodes int64) []byte {
	buf := getEncodeBuf()
	*buf = appendPairResult(*buf, rel, a, b, verdict, nodes)
	return takeBody(buf)
}

// encodeWitnessResult returns the WitnessResult body appendWitnessResult
// writes, in a buffer of its own.
func encodeWitnessResult(x *model.Execution, rel, a, b string, verdict Verdict, steps []core.WitnessStep) []byte {
	buf := getEncodeBuf()
	*buf = appendWitnessResult(*buf, x, rel, a, b, verdict, steps)
	return takeBody(buf)
}

// takeBody returns a copy of buf's bytes and puts buf back in the pool.
func takeBody(buf *[]byte) []byte {
	body := append([]byte(nil), *buf...)
	putEncodeBuf(buf)
	return body
}

// appendMatrixResult appends the MatrixResult body answering a matrix
// query over x: the event names, m's relations read row by row from their
// bitsets, and, for a partial m, its undecided pairs, its checkpoint
// (already encoded as a string) and its cause. nodes is the search effort
// and p the plan that bracketed the query, or nil. Fields follow the
// struct's order and omitempty rules.
func appendMatrixResult(dst []byte, x *model.Execution, m *core.MatrixResult, nodes int64, p *plan.Plan, checkpoint string) []byte {
	dst = append(dst, `{"events":`...)
	if x.NumEvents() == 0 {
		dst = append(dst, "null"...)
	} else {
		var scratch [64]byte
		name := scratch[:0]
		dst = append(dst, '[')
		for e := 0; e < x.NumEvents(); e++ {
			if e > 0 {
				dst = append(dst, ',')
			}
			name = x.AppendEventName(name[:0], model.EventID(e))
			dst = appendJSONString(dst, name)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"complete":`...)
	dst = strconv.AppendBool(dst, m.Complete)
	dst = append(dst, `,"relations":`...)
	dst = appendRelations(dst, m.Relations)
	if !m.Complete {
		dst = append(dst, `,"undecided":`...)
		dst = appendRelations(dst, m.Undecided)
	}
	dst = append(dst, `,"decidedPairs":`...)
	dst = strconv.AppendInt(dst, int64(m.DecidedPairs()), 10)
	dst = append(dst, `,"totalPairs":`...)
	dst = strconv.AppendInt(dst, int64(m.TotalPairs()), 10)
	if checkpoint != "" {
		dst = append(dst, `,"checkpoint":`...)
		dst = appendJSONString(dst, checkpoint)
	}
	if cause := causeName(m.Cause); cause != "" && !m.Complete {
		dst = append(dst, `,"cause":`...)
		dst = appendJSONString(dst, cause)
	}
	dst = append(dst, `,"expanded":`...)
	dst = strconv.AppendInt(dst, m.Expanded, 10)
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, nodes, 10)
	if p != nil {
		dst = append(dst, `,"plan":`...)
		dst = appendPlanSummary(dst, p)
	}
	return append(dst, '}')
}

// appendPairResult appends the PairResult body answering the pair query
// rel(a, b) with verdict after nodes search nodes.
func appendPairResult(dst []byte, rel, a, b string, verdict Verdict, nodes int64) []byte {
	dst = appendPairHead(dst, rel, a, b, verdict)
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, nodes, 10)
	return append(dst, '}')
}

// appendWitnessResult appends the WitnessResult body answering the
// witness query rel(a, b) over x with verdict and the schedule steps,
// each written as core.FormatSteps renders it.
func appendWitnessResult(dst []byte, x *model.Execution, rel, a, b string, verdict Verdict, steps []core.WitnessStep) []byte {
	dst = appendPairHead(dst, rel, a, b, verdict)
	if len(steps) > 0 {
		dst = append(dst, `,"steps":[`...)
		var scratch [64]byte
		text := scratch[:0]
		for i, st := range steps {
			if i > 0 {
				dst = append(dst, ',')
			}
			ev := &x.Events[st.Event]
			text = append(text[:0], x.Procs[ev.Proc].Name...)
			text = append(text, ": "...)
			switch st.Kind {
			case core.StepBegin, core.StepEnd:
				text = append(text, "⟨"...)
				if ev.Label != "" {
					text = append(text, ev.Label...)
				} else {
					text = append(text, 'e')
					text = strconv.AppendInt(text, int64(st.Event), 10)
				}
				if st.Kind == core.StepBegin {
					text = append(text, " begins⟩"...)
				} else {
					text = append(text, " ends⟩"...)
				}
			default:
				text = append(text, x.Ops[st.Op].Stmt...)
			}
			dst = appendJSONString(dst, text)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPairHead opens a pair or witness body with its fields up to the
// verdict.
func appendPairHead(dst []byte, rel, a, b string, verdict Verdict) []byte {
	dst = append(dst, `{"rel":`...)
	dst = appendJSONString(dst, rel)
	dst = append(dst, `,"a":`...)
	dst = appendJSONString(dst, a)
	dst = append(dst, `,"b":`...)
	dst = appendJSONString(dst, b)
	dst = append(dst, `,"verdict":`...)
	return appendJSONString(dst, verdict.String())
}

// appendRelations appends rels as the JSON object mapping each relation's
// name to its pairs, keys sorted and each relation's pairs row-major.
func appendRelations(dst []byte, rels map[core.RelKind]*model.Relation) []byte {
	dst = append(dst, '{')
	first := true
	for _, kind := range kindsByName {
		rel, ok := rels[kind]
		if !ok {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = appendJSONString(dst, kind.String())
		dst = append(dst, ':', '[')
		sep := false
		for a := 0; a < rel.N(); a++ {
			for w, x := range rel.Row(model.EventID(a)).Words() {
				for ; x != 0; x &= x - 1 {
					if sep {
						dst = append(dst, ',')
					}
					sep = true
					dst = append(dst, '[')
					dst = strconv.AppendInt(dst, int64(a), 10)
					dst = append(dst, ',')
					dst = strconv.AppendInt(dst, int64(w*64+bits.TrailingZeros64(x)), 10)
					dst = append(dst, ']')
				}
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPlanSummary appends the PlanSummary of p.
func appendPlanSummary(dst []byte, p *plan.Plan) []byte {
	dst = append(dst, `{"totalPairs":`...)
	dst = strconv.AppendInt(dst, int64(p.TotalPairs), 10)
	dst = append(dst, `,"residuePairs":`...)
	dst = strconv.AppendInt(dst, int64(p.Residue), 10)
	if len(p.Tiers) > 0 {
		dst = append(dst, `,"tiers":[`...)
		for i, st := range p.Tiers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"tier":`...)
			dst = appendJSONString(dst, st.Tier.String())
			dst = append(dst, `,"pairsDecided":`...)
			dst = strconv.AppendInt(dst, int64(st.PairsDecided), 10)
			dst = append(dst, `,"factsDecided":`...)
			dst = strconv.AppendInt(dst, int64(st.FactsDecided), 10)
			dst = append(dst, `,"eventsScanned":`...)
			dst = strconv.AppendInt(dst, int64(st.EventsScanned), 10)
			dst = append(dst, `,"rounds":`...)
			dst = strconv.AppendInt(dst, int64(st.Rounds), 10)
			dst = append(dst, `,"orderedPairs":`...)
			dst = strconv.AppendInt(dst, int64(st.OrderedPairs), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendEnvelope appends e followed by a newline. e.Result, a job's body
// as encoding/json or appendMatrixResult wrote it, is copied as it is: it
// is already compact and HTML-safe, so encoding/json's compacting copy
// would leave it unchanged. A nil or empty Result is written as null.
func appendEnvelope(dst []byte, e *Envelope) []byte {
	dst = append(dst, `{"schemaVersion":`...)
	dst = strconv.AppendInt(dst, int64(e.SchemaVersion), 10)
	dst = append(dst, `,"requestId":`...)
	dst = appendJSONString(dst, e.RequestID)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, e.Cached)
	dst = append(dst, `,"elapsedMs":`...)
	dst = appendJSONFloat(dst, e.ElapsedMs)
	if t := e.Trace; t != nil {
		dst = append(dst, `,"trace":{"requestId":`...)
		dst = appendJSONString(dst, t.RequestID)
		if t.Lane != "" {
			dst = append(dst, `,"lane":`...)
			dst = appendJSONString(dst, t.Lane)
		}
		if t.Shed {
			dst = append(dst, `,"shed":true`...)
		}
		dst = append(dst, `,"queueWaitMs":`...)
		dst = appendJSONFloat(dst, t.QueueWaitMs)
		if len(t.Phases) > 0 {
			dst = append(dst, `,"phases":[`...)
			for i, ph := range t.Phases {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"name":`...)
				dst = appendJSONString(dst, ph.Name)
				dst = append(dst, `,"ms":`...)
				dst = appendJSONFloat(dst, ph.Ms)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"result":`...)
	if len(e.Result) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, e.Result...)
	}
	return append(dst, '}', '\n')
}

// hexDigits are the digits of a \u escape, lower case as encoding/json
// writes them.
const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: '"' and '\\' and the control characters with
// short forms are backslash-escaped, other bytes below 0x20 and '<', '>'
// and '&' become \u00XX, each byte of invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format, which
// follows ES6 number-to-string conversion: the shortest decimal that
// round-trips, in exponent form below 1e-6 or from 1e21 in magnitude,
// with a one-digit negative exponent unpadded. f must be finite, as
// every duration in milliseconds is; encoding/json refuses NaN and the
// infinities.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
