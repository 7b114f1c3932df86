package traceio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"eventorder/internal/model"
)

func sample(t *testing.T) *model.Execution {
	t.Helper()
	b := model.NewBuilder()
	b.Sem("s", 0, model.SemCounting)
	b.Sem("m", 1, model.SemBinary)
	b.EventVar("e", true)
	main := b.Proc("main")
	main.Label("a").Write("x")
	child := main.Fork("child")
	child.Wait("e")
	child.V("s")
	main.P("s")
	main.Join("child")
	main.Label("b").Read("x")
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestExecutionRoundTrip(t *testing.T) {
	x := sample(t)
	var buf bytes.Buffer
	if err := SaveExecution(&buf, x); err != nil {
		t.Fatalf("Save: %v", err)
	}
	y, err := LoadExecution(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if y.NumProcs() != x.NumProcs() || y.NumEvents() != x.NumEvents() || y.NumOps() != x.NumOps() {
		t.Fatalf("shape changed: %s vs %s", y, x)
	}
	for i := range x.Ops {
		if x.Ops[i].Kind != y.Ops[i].Kind || x.Ops[i].Obj != y.Ops[i].Obj || x.Ops[i].Proc != y.Ops[i].Proc {
			t.Fatalf("op %d changed: %+v vs %+v", i, y.Ops[i], x.Ops[i])
		}
	}
	if len(y.Order) != len(x.Order) {
		t.Fatal("order length changed")
	}
	for i := range x.Order {
		if x.Order[i] != y.Order[i] {
			t.Fatal("order changed")
		}
	}
	if y.Sems["m"].Kind != model.SemBinary || y.Sems["s"].Init != 0 {
		t.Errorf("sems changed: %+v", y.Sems)
	}
	if !y.EvInit["e"] {
		t.Error("event var initial state lost")
	}
	if _, ok := y.EventByLabel("a"); !ok {
		t.Error("label lost")
	}
	// D must derive identically.
	if !model.DataDependence(x).Equal(model.DataDependence(y)) {
		t.Error("derived D differs after round trip")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	x := sample(t)
	bad := *x
	bad.Order = nil
	var buf bytes.Buffer
	if err := SaveExecution(&buf, &bad); err == nil {
		t.Error("saved execution without order")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{`,
		`{"version": 99}`,
		`{"version": 1, "procs": [], "events": [], "ops": [], "order": [3]}`,
		`{"version": 1, "procs": [{"name":"p","ops":[0],"parent":-1,"forkOp":-1}],
		  "events": [{"proc":0,"kind":"zap","ops":[0]}],
		  "ops": [{"proc":0,"event":0,"kind":"nop"}], "order":[0]}`,
	}
	for _, src := range cases {
		if _, err := LoadExecution(strings.NewReader(src)); err == nil {
			t.Errorf("loaded corrupt input %q", src)
		}
	}
}

func TestRelationRoundTrip(t *testing.T) {
	r := model.NewRelation("MHB", 5)
	r.Set(0, 3)
	r.Set(2, 4)
	var buf bytes.Buffer
	if err := SaveRelation(&buf, r); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(r2) || r2.Name != "MHB" {
		t.Errorf("relation round trip changed: %s vs %s", r2, r)
	}
	if _, err := LoadRelation(strings.NewReader(`{"name":"x","n":2,"pairs":[[0,9]]}`)); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

// TestOnePassSubsetBoundary edits a compact canonical trace into inputs
// just outside the one-pass subset. Each must take the fallback and come
// out exactly as the reference decode has it: the same execution, or the
// same error text.
func TestOnePassSubsetBoundary(t *testing.T) {
	var buf, compact bytes.Buffer
	if err := SaveExecution(&buf, sample(t)); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	base := compact.String()
	if _, onePass, err := load(strings.NewReader(base)); err != nil || !onePass {
		t.Fatalf("base trace: onePass=%t err=%v", onePass, err)
	}
	edits := []struct{ name, old, new string }{
		{"escape", `"name":"main"`, `"name":"m\u0061in"`},
		{"escaped html", `"label":"a"`, `"label":"\u003ca\u003e"`},
		{"non-ascii", `"label":"a"`, `"label":"é"`},
		{"control byte", `"label":"a"`, "\"label\":\"a\tb\""},
		{"null string", `"label":"a",`, `"label":null,`},
		{"null list", `"order":[0,1,2,3,4,5,6]`, `"order":null`},
		{"null top-level list", `"sems":[{"name":"m","init":1,"binary":true},{"name":"s","init":0}],`, `"sems":null,`},
		{"unknown key", `{"version":1,`, `{"version":1,"extra":[1,{"a":null}],`},
		{"case-folded key", `"version":1`, `"Version":1`},
		{"duplicate key", `"version":1`, `"version":1,"version":1`},
		{"duplicate nested key", `"init":0}`, `"init":0,"init":0}`},
		{"duplicate event variable", `"eventVars":{"e":true}`, `"eventVars":{"e":false,"e":true}`},
		{"float", `"init":0}`, `"init":0.0}`},
		{"exponent", `"init":1,`, `"init":1e0,`},
		{"leading zero", `"init":1,`, `"init":01,`},
		{"negative zero", `"parent":0`, `"parent":-0`},
		{"huge integer", `"init":1,`, `"init":99999999999999999999,`},
		{"string for int", `"init":1,`, `"init":"1",`},
		{"trailing data", "}\n", `} {"version":2}`},
		{"trailing comma", `"order":[0,1,2,3,4,5,6]`, `"order":[0,1,2,3,4,5,6,]`},
		{"truncated", `,"order":[0,1,2,3,4,5,6]}`, `,"order":[0,1,2,`},
		{"wrong version", `"version":1`, `"version":2`},
		{"unknown kind", `"kind":"nop","label":"a"`, `"kind":"zap","label":"a"`},
		{"missing kind", `"kind":"nop","label":"a",`, `"label":"a",`},
		{"proc out of range", `{"proc":1,"kind":"wait"`, `{"proc":7,"kind":"wait"`},
		{"event op out of range", `"label":"b","ops":[6]`, `"label":"b","ops":[60]`},
		{"order out of range", `"order":[0,1,2,3,4,5,6]`, `"order":[0,1,2,3,4,5,66]`},
		{"invalid order", `"order":[0,1,2,3,4,5,6]`, `"order":[0,1,2,4,3,5,6]`},
		{"negative init", `"init":0}`, `"init":-1}`},
	}
	for _, e := range edits {
		src := strings.Replace(base+"\n", e.old, e.new, 1)
		if src == base+"\n" {
			t.Fatalf("%s: edit %q not found in %s", e.name, e.old, base)
		}
		got, onePass, err := load(strings.NewReader(src))
		if onePass {
			t.Errorf("%s: one-pass path accepted %s", e.name, src)
		}
		want, wantErr := loadReference(strings.NewReader(src))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LoadExecution = %v, %v; reference decode = %v, %v", e.name, got, err, want, wantErr)
		}
	}
}

// TestEventFreeRoundTrip: an execution with no events, as the interpreter
// builds for `proc A0 {}`, saves, loads (through the fallback, since
// SaveExecution writes null for its empty lists) and saves again
// byte-for-byte.
func TestEventFreeRoundTrip(t *testing.T) {
	b := model.NewBuilder()
	b.Proc("A0")
	x, err := b.BuildWithOrder(nil)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := SaveExecution(&first, x); err != nil {
		t.Fatalf("Save: %v", err)
	}
	y, onePass, err := load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, first.Bytes())
	}
	if onePass {
		t.Errorf("one-pass path accepted a trace with null lists:\n%s", first.Bytes())
	}
	var second bytes.Buffer
	if err := SaveExecution(&second, y); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not canonical:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}
}

// TestLoadReadError: LoadExecution reads its input to EOF before decoding,
// but a read error reaches the reference decode after the bytes read before
// it, so the result is what decoding the reader directly gives: a complete
// trace before the error still loads, a cut one reports the error.
func TestLoadReadError(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveExecution(&buf, sample(t)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, n := range []int{buf.Len(), buf.Len() / 2} {
		reader := func() io.Reader {
			return io.MultiReader(bytes.NewReader(buf.Bytes()[:n]), iotest.ErrReader(boom))
		}
		got, err := LoadExecution(reader())
		want, wantErr := loadReference(reader())
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%d of %d bytes: LoadExecution = %v, %v; reference decode = %v, %v", n, buf.Len(), got, err, want, wantErr)
		}
		if complete := n == buf.Len(); complete != (err == nil) {
			t.Errorf("%d of %d bytes: err = %v", n, buf.Len(), err)
		}
	}
}
