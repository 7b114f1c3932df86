package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/core"
	"eventorder/internal/model"
	"eventorder/internal/plan"
)

// referenceMatrixResult assembles the MatrixResult a matrix job's body
// encodes, field by field from the analysis; json.Marshal of it is the
// wire form appendMatrixResult must reproduce byte for byte.
func referenceMatrixResult(x *model.Execution, res *plan.Result) MatrixResult {
	m := res.Matrix
	out := MatrixResult{
		Complete:     m.Complete,
		Relations:    map[string][][2]int{},
		DecidedPairs: m.DecidedPairs(),
		TotalPairs:   m.TotalPairs(),
		Expanded:     m.Expanded,
		Nodes:        res.Stats.Nodes,
	}
	for e := 0; e < x.NumEvents(); e++ {
		out.Events = append(out.Events, x.EventName(model.EventID(e)))
	}
	relPairs := func(rel *model.Relation) [][2]int {
		pairs := [][2]int{}
		for _, p := range rel.Pairs() {
			pairs = append(pairs, [2]int{int(p[0]), int(p[1])})
		}
		return pairs
	}
	for _, kind := range m.Kinds {
		out.Relations[kind.String()] = relPairs(m.Relations[kind])
	}
	if !m.Complete {
		out.Undecided = map[string][][2]int{}
		for _, kind := range m.Kinds {
			out.Undecided[kind.String()] = relPairs(m.Undecided[kind])
		}
		out.Checkpoint = m.Checkpoint
		out.Cause = causeName(m.Cause)
	}
	if p := res.Plan; p != nil {
		out.Plan = &PlanSummary{TotalPairs: p.TotalPairs, ResiduePairs: p.Residue}
		for _, st := range p.Tiers {
			out.Plan.Tiers = append(out.Plan.Tiers, PlanTier{
				Tier:          st.Tier.String(),
				PairsDecided:  st.PairsDecided,
				FactsDecided:  st.FactsDecided,
				EventsScanned: st.EventsScanned,
				Rounds:        st.Rounds,
				OrderedPairs:  st.OrderedPairs,
			})
		}
	}
	return out
}

// checkMatrixBody requires appendMatrixResult's body for res to equal
// json.Marshal of the reference MatrixResult.
func checkMatrixBody(t *testing.T, what string, x *model.Execution, res *plan.Result) {
	t.Helper()
	var ckpt string
	if c := res.Matrix.Checkpoint; c != nil {
		var err error
		if ckpt, err = c.EncodeString(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(referenceMatrixResult(x, res))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendMatrixResult([]byte("prefix"), x, res.Matrix, res.Stats.Nodes, res.Plan, ckpt); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: appendMatrixResult differs from json.Marshal:\n got %s\nwant %s", what, got[len("prefix"):], want)
	}
}

// TestAppendMatrixResultMatchesMarshal pins the matrix body's wire bytes:
// for every testdata program and an event-free one, all six kinds and a
// single kind, tiers −1 to 3, ignoreData off and on, and unlimited, 50 and
// 1 state budgets — complete, planner-decided and interrupted results —
// appendMatrixResult must equal json.Marshal of the reference.
func TestAppendMatrixResultMatchesMarshal(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.evo"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	programs := map[string]string{"event-free": "proc A0 {}"}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(path)] = string(src)
	}
	partials, eventFree := 0, 0
	for name, src := range programs {
		x, _, err := resolveExecution(&ExecutionSource{Program: src})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, kinds := range [][]core.RelKind{core.AllRelKinds, {core.RelMHB}} {
			for tiers := -1; tiers <= core.MaxPlanTiers; tiers++ {
				for _, ignore := range []bool{false, true} {
					for _, budget := range []int64{0, 50, 1} {
						mopts := core.MatrixOpts{Tiers: tiers, Budget: budget}
						res, err := plan.Analyze(context.Background(), x, kinds, core.Options{IgnoreData: ignore}, mopts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !res.Matrix.Complete {
							partials++
						}
						if x.NumEvents() == 0 {
							eventFree++
						}
						checkMatrixBody(t, name, x, res)
					}
				}
			}
		}
	}
	if partials == 0 || eventFree == 0 {
		t.Fatalf("covered %d partial and %d event-free results, want some of each", partials, eventFree)
	}
}

// TestAppendWitnessResultMatchesMarshal pins the pair and witness bodies'
// wire bytes: for every witness of forkjoin5, barrier-ring5 and each
// testdata program, all six relations over every ordered pair,
// appendWitnessResult must equal json.Marshal of the WitnessResult with
// core.FormatSteps' steps, and appendPairResult json.Marshal of the
// PairResult.
func TestAppendWitnessResultMatchesMarshal(t *testing.T) {
	executions := map[string]*model.Execution{}
	for name, trace := range ingestTraces(t) {
		x, _, err := resolveExecution(&ExecutionSource{Execution: trace})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		executions[name] = x
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.evo"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		x, _, err := resolveExecution(&ExecutionSource{Program: string(src)})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		executions[filepath.Base(path)] = x
	}
	witnesses := 0
	for name, x := range executions {
		an, err := core.New(x, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range core.AllRelKinds {
			for i := range x.Events {
				for j := range x.Events {
					if i == j {
						continue
					}
					w, err := an.WitnessSchedule(context.Background(), kind, model.EventID(i), model.EventID(j))
					if err != nil {
						t.Fatal(err)
					}
					if len(w.Steps) > 0 {
						witnesses++
					}
					a, b := x.EventName(model.EventID(i)), x.Events[j].Label
					checkPairBodies(t, name, x, kind.String(), a, b, core.VerdictOf(w.Holds), int64(i*j), w.Steps)
				}
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no witness carried a schedule")
	}
}

// checkPairBodies requires appendWitnessResult and appendPairResult to
// equal json.Marshal of the WitnessResult and PairResult they write.
func checkPairBodies(t *testing.T, what string, x *model.Execution, rel, a, b string, verdict Verdict, nodes int64, steps []core.WitnessStep) {
	t.Helper()
	want, err := json.Marshal(WitnessResult{Rel: rel, A: a, B: b, Verdict: verdict, Steps: core.FormatSteps(x, steps)})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendWitnessResult([]byte("prefix"), x, rel, a, b, verdict, steps); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: appendWitnessResult differs from json.Marshal:\n got %s\nwant %s", what, got[len("prefix"):], want)
	}
	want, err = json.Marshal(PairResult{Rel: rel, A: a, B: b, Verdict: verdict, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendPairResult([]byte("prefix"), rel, a, b, verdict, nodes); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: appendPairResult differs from json.Marshal:\n got %s\nwant %s", what, got[len("prefix"):], want)
	}
}

// TestAppendEnvelopeMatchesEncoder pins the envelope's wire bytes against
// json.NewEncoder(…).Encode over cached and uncached responses, every
// lane, shed and not, no, empty and several phases, request IDs that need
// escaping, and floats at the edges of encoding/json's format.
func TestAppendEnvelopeMatchesEncoder(t *testing.T) {
	pair, err := json.Marshal(PairResult{Rel: "MHB", A: "<a>", B: "b&c", Verdict: VerdictTrue, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := resolveExecution(&ExecutionSource{Program: figure1Program(t)})
	if err != nil {
		t.Fatal(err)
	}
	var bodies []json.RawMessage
	for _, budget := range []int64{0, 1} {
		res, err := plan.Analyze(context.Background(), x, nil, core.Options{}, core.MatrixOpts{Tiers: -1, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		var ckpt string
		if c := res.Matrix.Checkpoint; c != nil {
			if ckpt, err = c.EncodeString(); err != nil {
				t.Fatal(err)
			}
		}
		bodies = append(bodies, encodeMatrixResult(x, res.Matrix, res.Stats.Nodes, res.Plan, ckpt))
	}
	bodies = append(bodies, nil, pair)
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 0.001, 1, 123.456, 1e20, 1e21, 5e-324, math.MaxFloat64}
	traces := []*TraceInfo{nil}
	for i, lane := range []string{"", LaneCache, LaneFast, LaneHeavy} {
		for _, shed := range []bool{false, true} {
			for _, phases := range [][]Phase{nil, {}, {{Name: "decode", Ms: floats[i]}, {Name: "plan", Ms: 0.001}, {Name: "search<&>", Ms: 1e21}}} {
				traces = append(traces, &TraceInfo{RequestID: "r-<abc>&-000001", Lane: lane, Shed: shed, QueueWaitMs: floats[len(floats)-1-i], Phases: phases})
			}
		}
	}
	n := 0
	for _, id := range []string{"r-9f3a2c-000042", "r-<>&", "id\u2028\u2029\x00\x1f\x7f\xff\""} {
		for _, cached := range []bool{false, true} {
			for _, body := range bodies {
				for ti, trace := range traces {
					env := Envelope{SchemaVersion: SchemaVersion, RequestID: id, Cached: cached, ElapsedMs: floats[(n+ti)%len(floats)], Trace: trace, Result: body}
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(env); err != nil {
						t.Fatal(err)
					}
					if got := appendEnvelope(nil, &env); !bytes.Equal(got, want.Bytes()) {
						t.Fatalf("appendEnvelope differs from the encoder:\n got %s\nwant %s", got, want.Bytes())
					}
					n++
				}
			}
		}
	}
}

// TestMatrixResponsesReencode checks a complete, a partial and a
// cache-hit matrix response at the handler: decoded into Envelope and
// MatrixResult and encoded again with encoding/json, each must give back
// the bytes received.
func TestMatrixResponsesReencode(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	barrier6, err := os.ReadFile(filepath.Join("..", "..", "testdata", "barrier6.evo"))
	if err != nil {
		t.Fatal(err)
	}
	figure1 := figure1Program(t)
	for _, c := range []struct {
		name            string
		req             AnalyzeRequest
		cached, partial bool
	}{
		{"complete", AnalyzeRequest{ExecutionSource: ExecutionSource{Program: figure1}, All: true}, false, false},
		{"cache hit", AnalyzeRequest{ExecutionSource: ExecutionSource{Program: figure1}, All: true}, true, false},
		{"partial", AnalyzeRequest{ExecutionSource: ExecutionSource{Program: string(barrier6)}, All: true, Tiers: -1, Budget: 50}, false, true},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, w.Code, w.Body)
		}
		raw := w.Body.Bytes()
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var m MatrixResult
		if err := json.Unmarshal(env.Result, &m); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if env.Cached != c.cached || m.Complete == c.partial || (m.Checkpoint != nil) != c.partial {
			t.Fatalf("%s: cached %t, complete %t, checkpoint %t", c.name, env.Cached, m.Complete, m.Checkpoint != nil)
		}
		result, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(result, env.Result) {
			t.Fatalf("%s: the result re-encodes differently:\n got %s\nwant %s", c.name, result, env.Result)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(env); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("%s: the envelope re-encodes differently:\n got %s\nwant %s", c.name, again.Bytes(), raw)
		}
	}
}

// FuzzEncodeResponse fuzzes the writers against encoding/json: event
// names built from arbitrary label, process and object strings (invalid
// UTF-8, U+2028, control characters), relation and undecided bits, a
// cause text, the envelope's floats, and pair and witness bodies whose
// labels, process names and statements are those strings.
func FuzzEncodeResponse(f *testing.F) {
	f.Add("a<b>&c", "proc\u2028", "sem\x00\xff", []byte{0x5a, 0xff, 0x01, 0x80}, uint8(5), false, 0.001, 1e21)
	f.Add("", "\xed\xa0\x80", "\u2029\t\"\\", []byte{0xff}, uint8(70), true, 1e-7, 0.0)
	f.Fuzz(func(t *testing.T, label, proc, obj string, relBits []byte, events uint8, complete bool, elapsed, waitMs float64) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) || math.IsNaN(waitMs) || math.IsInf(waitMs, 0) {
			t.Skip("encoding/json refuses NaN and the infinities")
		}
		n := int(events % 80)
		x := &model.Execution{Procs: []model.Proc{{Name: proc}, {Name: obj}}}
		var steps []core.WitnessStep
		for e := 0; e < n; e++ {
			ev := model.Event{ID: model.EventID(e), Proc: model.ProcID(e % 2), Ops: make([]model.OpID, e%3+1)}
			if e%2 == 0 {
				ev.Label = label
			}
			if e%3 == 0 {
				ev.Kind, ev.Obj, ev.Ops = model.OpAcquire, obj, ev.Ops[:1]
			}
			op := model.OpID(len(x.Ops))
			x.Ops = append(x.Ops, model.Op{ID: op, Event: ev.ID, Proc: ev.Proc, Stmt: obj + label})
			x.Events = append(x.Events, ev)
			steps = append(steps,
				core.WitnessStep{Kind: core.StepBegin, Event: ev.ID, Op: model.OpID(model.NoID)},
				core.WitnessStep{Kind: core.StepOp, Event: ev.ID, Op: op},
				core.WitnessStep{Kind: core.StepEnd, Event: ev.ID, Op: model.OpID(model.NoID)})
		}
		verdict := Verdict(events % 3)
		checkPairBodies(t, "fuzz", x, obj, label, proc, verdict, int64(len(relBits)), steps)
		bit := 0
		fill := func(name string) *model.Relation {
			r := model.NewRelation(name, n)
			for a := 0; a < n && len(relBits) > 0; a++ {
				for b := 0; b < n; b++ {
					if relBits[bit/8%len(relBits)]>>(bit%8)&1 != 0 {
						r.Set(model.EventID(a), model.EventID(b))
					}
					bit++
				}
			}
			return r
		}
		m := &core.MatrixResult{Complete: complete, Kinds: core.AllRelKinds, Relations: map[core.RelKind]*model.Relation{}, Expanded: int64(len(relBits))}
		if !complete {
			m.Undecided = map[core.RelKind]*model.Relation{}
			m.Cause = errors.New(label + obj)
		}
		for _, kind := range core.AllRelKinds {
			m.Relations[kind] = fill(kind.String())
			if !complete {
				m.Undecided[kind] = fill(kind.String())
			}
		}
		res := &plan.Result{Matrix: m, Stats: core.Stats{Nodes: int64(n)}}
		want, err := json.Marshal(referenceMatrixResult(x, res))
		if err != nil {
			t.Fatal(err)
		}
		body := appendMatrixResult(nil, x, m, res.Stats.Nodes, nil, "")
		if !bytes.Equal(body, want) {
			t.Fatalf("appendMatrixResult differs from json.Marshal:\n got %s\nwant %s", body, want)
		}
		env := Envelope{SchemaVersion: SchemaVersion, RequestID: label, Cached: complete, ElapsedMs: elapsed, Result: body,
			Trace: &TraceInfo{RequestID: proc, Lane: obj, Shed: !complete, QueueWaitMs: waitMs, Phases: []Phase{{Name: obj, Ms: elapsed}, {Name: label, Ms: waitMs}}}}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(env); err != nil {
			t.Fatal(err)
		}
		if got := appendEnvelope(nil, &env); !bytes.Equal(got, enc.Bytes()) {
			t.Fatalf("appendEnvelope differs from the encoder:\n got %s\nwant %s", got, enc.Bytes())
		}
	})
}

// BenchmarkEncodeMatrixResponse times encoding a complete all-six matrix
// response, body and envelope, for each testdata program: "writers" with
// encodeMatrixResult and appendEnvelope, "reference" with json.Marshal of
// the reference MatrixResult and json.NewEncoder(…).Encode of the
// envelope.
func BenchmarkEncodeMatrixResponse(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.evo"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no testdata programs: %v", err)
	}
	trace := &TraceInfo{RequestID: "r-9f3a2c-000042", Lane: LaneFast, QueueWaitMs: 0.002,
		Phases: []Phase{{Name: "decode", Ms: 0.011}, {Name: "resolve", Ms: 0.046}, {Name: "plan", Ms: 0.093}, {Name: "search", Ms: 0.021}}}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		x, _, err := resolveExecution(&ExecutionSource{Program: string(src)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := plan.Analyze(context.Background(), x, nil, core.Options{}, core.MatrixOpts{})
		if err != nil {
			b.Fatal(err)
		}
		name := filepath.Base(path)
		b.Run(name+"/writers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body := encodeMatrixResult(x, res.Matrix, res.Stats.Nodes, res.Plan, "")
				buf := getEncodeBuf()
				*buf = appendEnvelope(*buf, &Envelope{SchemaVersion: SchemaVersion, RequestID: trace.RequestID, ElapsedMs: 0.25, Trace: trace, Result: body})
				putEncodeBuf(buf)
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := json.Marshal(referenceMatrixResult(x, res))
				if err != nil {
					b.Fatal(err)
				}
				if err := json.NewEncoder(io.Discard).Encode(Envelope{SchemaVersion: SchemaVersion, RequestID: trace.RequestID, ElapsedMs: 0.25, Trace: trace, Result: body}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
