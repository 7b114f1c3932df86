package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"eventorder/internal/gen"
	"eventorder/internal/traceio"
)

// requestKinds makes a fresh value of each request body type.
var requestKinds = map[string]func() request{
	"analyze": func() request { return new(AnalyzeRequest) },
	"races":   func() request { return new(RacesRequest) },
	"witness": func() request { return new(WitnessRequest) },
}

// traceBodies are request bodies over the pair-interactive workload's
// traces, shaped as the benchmark client builds them: json.Marshal of a
// request carrying the trace, which puts "execution" first, compacted.
func traceBodies(t testing.TB) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	for name, raw := range ingestTraces(t) {
		x, err := traceio.LoadExecution(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, e := range x.Events {
			if e.Label != "" {
				labels = append(labels, e.Label)
			}
		}
		a, b := labels[0], labels[len(labels)-1]
		src := ExecutionSource{Execution: raw}
		for kind, req := range map[string]any{
			"analyze": AnalyzeRequest{ExecutionSource: src, Rel: "MHB", A: a, B: b},
			"races":   RacesRequest{ExecutionSource: src},
			"witness": WitnessRequest{ExecutionSource: src, Rel: "CCW", A: a, B: b},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies[kind+"/"+name] = body
		}
	}
	return bodies
}

// decodeOutcome reads body through readBody under limit, then decodes it
// into a fresh value of kind's type, with decodeRequest or, when ref is
// set, with decodeReference. It returns the request, the carried execution
// (cleared from the request), and the status and text the handler would
// answer, or 0 and "" when the body is accepted.
func decodeOutcome(t *testing.T, kind string, body []byte, limit int64, ref bool) (req request, onePass bool, status int, text string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body))
	buf, err := readBody(httptest.NewRecorder(), r, limit)
	req = requestKinds[kind]()
	if err == nil {
		if ref {
			err = decodeReference(buf, req)
		} else {
			onePass, err = decodeRequest(buf, req)
		}
	}
	if err != nil {
		return nil, onePass, bodyStatus(err), err.Error()
	}
	return req, onePass, 0, ""
}

// checkParity decodes body with both decoders and fails unless both refuse
// it with the same status and text, or both accept it into equal requests
// and the one-pass path's carried execution equals LoadExecution's. It
// returns both requests, nil when refused.
func checkParity(t *testing.T, kind string, body []byte, limit int64) (got, want request, onePass bool) {
	t.Helper()
	got, onePass, status, text := decodeOutcome(t, kind, body, limit, false)
	want, _, wantStatus, wantText := decodeOutcome(t, kind, body, limit, true)
	if status != wantStatus || text != wantText {
		t.Fatalf("%s %q: decode answered %d %q, the reference %d %q", kind, body, status, text, wantStatus, wantText)
	}
	if got == nil {
		if onePass {
			t.Fatalf("%s %q: refused, yet reported the one-pass path", kind, body)
		}
		return nil, nil, false
	}
	src := got.source()
	x := src.decoded
	src.decoded = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: decode built %+v, the reference %+v", kind, body, got, want)
	}
	if onePass != (x != nil) {
		t.Fatalf("%s %q: one-pass path %v but carried execution %v", kind, body, onePass, x != nil)
	}
	if x != nil {
		loaded, err := traceio.LoadExecution(bytes.NewReader(src.Execution))
		if err != nil || !reflect.DeepEqual(x, loaded) {
			t.Fatalf("%s %q: carried execution differs from LoadExecution's (%v)", kind, body, err)
		}
	}
	src.decoded = x
	return got, want, onePass
}

// FuzzDecodeRequest holds the one-pass request decode to the reference: for
// any body and each request type, both refuse it with the same status and
// text, or both accept it into the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range traceBodies(f) {
		f.Add(body)
	}
	f.Add([]byte(`{"program":"proc main { a: skip\n b: skip }","rel":"MHB","a":"a","b":"b"}`))
	for _, row := range boundaryRows(f) {
		f.Add(row.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for kind := range requestKinds {
			checkParity(t, kind, body, 1<<16)
		}
	})
}

// TestDecodeFastPath pins that trace bodies take the one-pass path, with
// "execution" first, in the middle or last, and with whitespace between
// tokens. Without it, a decode that always fell back would pass every
// parity check.
func TestDecodeFastPath(t *testing.T) {
	for name, body := range traceBodies(t) {
		kind, _, _ := strings.Cut(name, "/")
		if _, _, onePass := checkParity(t, kind, body, 1<<20); !onePass {
			t.Errorf("%s: the benchmark-shaped body took the reference decode", name)
		}
	}
	trace := string(ingestTraces(t)["barrier-ring5"])
	ring, err := gen.Barrier(5)
	if err != nil {
		t.Fatal(err)
	}
	indented := string(executionJSON(t, ring))
	for name, body := range map[string]string{
		"only":     `{"execution":` + trace + `}`,
		"first":    `{"execution":` + trace + `,"rel":"MHB","a":"x","b":"y"}`,
		"middle":   `{"rel":"MHB","execution":` + trace + `,"a":"x","b":"y"}`,
		"last":     `{"rel":"MHB","a":"x","b":"y","execution":` + trace + `}`,
		"scalars":  `{"budget":7,"ignoreData":true,"timeoutMs":-1,"async":false,"resume":null,"execution":` + trace + `,"tries":0}`,
		"spaced":   " \n{ \"rel\" :\t\"MHB\" ,\r\n \"execution\" : " + indented + " , \"a\" : \"x\",\"b\":\"y\"\n}\n\t ",
		"indented": `{"execution":` + indented + `}`,
	} {
		if _, _, onePass := checkParity(t, "analyze", []byte(body), 1<<20); !onePass {
			t.Errorf("%s: took the reference decode", name)
		}
	}
}

// boundaryRow is a body just outside the one-pass path, or one the path
// takes whose refusal comes after decoding.
type boundaryRow struct {
	name    string
	body    []byte
	onePass bool
}

// boundaryRows edits a benchmark-shaped analyze body just past each
// condition of the one-pass path.
func boundaryRows(t testing.TB) []boundaryRow {
	t.Helper()
	trace := string(ingestTraces(t)["barrier-ring5"])
	pair := `"rel":"MHB","a":"x","b":"y"`
	body := `{"execution":` + trace + `,` + pair + `}`
	rows := []struct {
		name    string
		body    string
		onePass bool
	}{
		{"Execution key", `{"Execution":` + trace + `,` + pair + `}`, false},
		{"EXECUTION key", `{"EXECUTION":` + trace + `,` + pair + `}`, false},
		{"escaped key", `{"\u0065xecution":` + trace + `,` + pair + `}`, false},
		{"case-folded second key", `{"execution":` + trace + `,"EXECUTION":null,` + pair + `}`, false},
		{"execution twice", `{"execution":` + trace + `,"execution":` + trace + `,` + pair + `}`, false},
		{"execution and program", `{"execution":` + trace + `,"program":"proc main { }",` + pair + `}`, true},
		{"execution null", `{"execution":null,` + pair + `}`, false},
		{"execution array", `{"execution":[` + trace + `],` + pair + `}`, false},
		{"trace with an escape", strings.Replace(body, `"procs"`, `"proc\u0073"`, 1), false},
		{"trace with a float", strings.Replace(body, `"version":1`, `"version":1.0`, 1), false},
		{"unknown field", `{"execution":` + trace + `,"bogus":1,` + pair + `}`, false},
		{"workers", `{"execution":` + trace + `,"workers":2,` + pair + `}`, false},
		{"nested value", `{"execution":` + trace + `,"rel":{"x":1},"a":"x","b":"y"}`, false},
		{"nested empty array", `{"execution":` + trace + `,"a":[],` + pair + `}`, false},
		{"truncated", body[:len(body)/2], false},
		{"truncated after the trace", `{"execution":` + trace + `,"rel":"MH`, false},
		{"trailing data", body + ` xyz`, false},
		{"trailing object", body + `{"program":"garbage"}`, false},
		{"trailing comma", `{"execution":` + trace + `,}`, false},
		{"missing comma", `{"execution":` + trace + ` "rel":"MHB"}`, false},
		{"bad scalar", `{"execution":` + trace + `,"rel":MHB}`, false},
		{"wrong type", `{"execution":` + trace + `,"budget":"7"}`, false},
	}
	out := make([]boundaryRow, len(rows))
	for i, r := range rows {
		out[i] = boundaryRow{r.name, []byte(r.body), r.onePass}
	}
	return out
}

// TestDecodeBoundary checks that each body just outside the one-pass path
// takes the reference decode, and that every row, decoded or refused, ends
// as the reference ends: the same request and the same resolved execution,
// digest or error text.
func TestDecodeBoundary(t *testing.T) {
	for _, row := range boundaryRows(t) {
		got, want, onePass := checkParity(t, "analyze", row.body, 1<<20)
		if onePass != row.onePass {
			t.Errorf("%s: one-pass path %v, want %v", row.name, onePass, row.onePass)
		}
		if got == nil {
			continue
		}
		gx, gd, gerr := resolveExecution(got.source())
		wx, wd, werr := resolveExecution(want.source())
		if gd != wd || !reflect.DeepEqual(gx, wx) || errText(gerr) != errText(werr) {
			t.Errorf("%s: resolved to (%q, %v), the reference to (%q, %v)", row.name, gd, gerr, wd, werr)
		}
	}
	// The size limit is enforced before either decode, on the whole body.
	body := traceBodies(t)["analyze/barrier-ring5"]
	if _, _, status, text := decodeOutcome(t, "analyze", body, int64(len(body))-1, false); status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit body: %d %q, want 413", status, text)
	}
	if _, _, onePass := checkParity(t, "analyze", body, int64(len(body))); !onePass {
		t.Errorf("body exactly at the limit took the reference decode")
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
