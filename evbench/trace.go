package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/service"
	"eventorder/internal/traceio"
)

// The traced run. It replays the first traceSample[workload] requests of
// the stream one at a time on one goroutine, calling each layer's public
// function in the order the service's prepareAnalyze / prepareWitness and
// its job make them, with a span around each call. Then it sends the same
// body to a fresh server over HTTP; service.rest_ms is that round trip
// minus the request's layer spans. The timed runs carry no tracing.

var traceSample = map[string]int{wlCorpus: 400, wlHeavy: 24, wlPair: 400}

// span is one timed call. Spans of one request share Req; a root span has
// Parent 0.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUs"` // since the traced run began
	End    float64 `json:"endUs"`
	Allocs uint64  `json:"allocs"`
}

func (s *span) ms() float64 { return (s.End - s.Start) / 1000 }

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []*span
}

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.t0).Nanoseconds()) / 1000 }

// open starts a span and returns its id. Allocation counts come from
// runtime.MemStats, which is exact because one goroutine replays.
func (l *spanLog) open(req, parent int, name string) int {
	sp := &span{ID: len(l.spans) + 1, Parent: parent, Req: req, Name: name, Allocs: mallocs()}
	l.spans = append(l.spans, sp)
	sp.Start = l.us(time.Now())
	return sp.ID
}

func (l *spanLog) close(id int) *span {
	end := l.us(time.Now())
	sp := l.spans[id-1]
	sp.End = end
	sp.Allocs = mallocs() - sp.Allocs
	return sp
}

// done records a span that already ended (the engine's phase hook).
func (l *spanLog) done(req, parent int, name string, d time.Duration) {
	end := time.Now()
	l.spans = append(l.spans, &span{ID: len(l.spans) + 1, Parent: parent, Req: req, Name: name, Start: l.us(end.Add(-d)), End: l.us(end)})
}

// call wraps fn in a span.
func (l *spanLog) call(req, parent int, name string, fn func() error) (*span, error) {
	id := l.open(req, parent, name)
	err := fn()
	return l.close(id), err
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayed is one traced request.
type replayed struct {
	req      request
	x        *model.Execution
	layers   []*span // the request's direct layer spans
	httpMs   float64
	steps    int
	stats    core.Stats
	ranCore  bool
	plan     *plan.Plan
	tierMs   [plan.NumPolyTiers]float64 // Build with Tiers = 1, 2, 3
	phaseMs  map[string]float64
	matrixMs float64
}

// traceRun is the traced replay's outcome.
type traceRun struct {
	log     *spanLog
	reqs    []*replayed
	checked int // direct results and HTTP responses compared with expectations
}

// tracedReplay replays the first n requests of w's stream.
func tracedReplay(ctx context.Context, w *workload, n int) (*traceRun, error) {
	s, _, err := bootServer(ctx)
	if err != nil {
		return nil, err
	}
	defer s.close()
	tr := &traceRun{log: &spanLog{t0: time.Now()}}
	for i := range n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := w.request(i)
		if err != nil {
			return nil, err
		}
		rp, err := tr.replayOne(ctx, s, &r)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		tr.reqs = append(tr.reqs, rp)
	}
	return tr, nil
}

// replayOne replays one request through direct layer calls, then over
// HTTP, and checks both answers.
func (tr *traceRun) replayOne(ctx context.Context, s *server, r *request) (*replayed, error) {
	var src service.ExecutionSource
	if err := json.Unmarshal(r.body, &src); err != nil {
		return nil, err
	}
	l := tr.log
	rp := &replayed{req: *r, phaseMs: map[string]float64{}}
	root := l.open(r.index, 0, "request")
	layer := func(name string, fn func() error) error {
		sp, err := l.call(r.index, root, name, fn)
		rp.layers = append(rp.layers, sp)
		return err
	}
	body, err := tr.direct(ctx, r, src, rp, root, layer)
	l.close(root)
	if err != nil {
		return nil, err
	}
	if body != nil {
		if err := checkResult(r, body); err != nil {
			return nil, fmt.Errorf("direct replay: %w", err)
		}
		tr.checked++
	}

	var status int
	var resp []byte
	sp, err := l.call(r.index, 0, "http", func() error {
		var herr error
		status, resp, herr = post(ctx, s.client, s.url+r.path, r.body)
		return herr
	})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, resp)
	}
	if _, err := check(r, resp); err != nil {
		return nil, err
	}
	tr.checked++
	rp.httpMs = sp.ms()

	if rp.plan != nil {
		// Per-tier cost: Build with the cascade cut after 1, 2 and 3 tiers,
		// outside the request's tree so it stays out of the reconciliation.
		probe := l.open(r.index, 0, "probe")
		for t := 1; t <= plan.NumPolyTiers; t++ {
			sp, err := l.call(r.index, probe, fmt.Sprintf("plan.tiers%d", t), func() error {
				_, berr := plan.Build(rp.x, core.AllRelKinds, plan.Options{Tiers: t})
				return berr
			})
			if err != nil {
				return nil, err
			}
			rp.tierMs[t-1] = sp.ms()
		}
		l.close(probe)
	}
	return rp, nil
}

// direct makes the service's layer calls for r and returns the encoded
// result, or nil for a repeat, which the service's cache answers right
// after the digest.
func (tr *traceRun) direct(ctx context.Context, r *request, src service.ExecutionSource, rp *replayed, root int, layer func(string, func() error) error) ([]byte, error) {
	var x *model.Execution
	if src.Program != "" {
		var prog *lang.Program
		if err := layer("lang.parse", func() (err error) { prog, err = lang.Parse(src.Program); return }); err != nil {
			return nil, err
		}
		if err := layer("interp.run", func() error {
			res, err := interp.RunAvoidingDeadlock(prog, programTries, programSeed)
			if err == nil {
				x, rp.steps = res.X, res.Steps
			}
			return err
		}); err != nil {
			return nil, err
		}
	} else if err := layer("traceio.load", func() (err error) {
		x, err = traceio.LoadExecution(bytes.NewReader(src.Execution))
		return
	}); err != nil {
		return nil, err
	}
	rp.x = x
	if err := layer("traceio.digest", func() error { _, err := digest(x); return err }); err != nil {
		return nil, err
	}
	if r.repeat {
		return nil, nil
	}

	l := tr.log
	var an *core.Analyzer
	newAnalyzer := func() error {
		return layer("core.setup", func() (err error) { an, err = core.New(x, core.Options{}); return })
	}
	switch r.kind {
	case kindMatrix:
		var built *plan.Plan
		if err := layer("plan.build", func() (err error) {
			built, err = plan.Build(x, core.AllRelKinds, plan.Options{})
			return
		}); err != nil {
			return nil, err
		}
		rp.plan = built
		if err := newAnalyzer(); err != nil {
			return nil, err
		}
		mopts := core.MatrixOpts{}.Normalize(core.MatrixLimits{MaxWorkers: runtime.GOMAXPROCS(0)})
		mopts.Seed = built.Seed
		id := l.open(r.index, root, "core.matrix")
		mopts.OnPhase = func(phase string, d time.Duration) {
			l.done(r.index, id, "core."+phase, d)
			rp.phaseMs[phase] += float64(d) / 1e6
		}
		m, err := an.Matrix(ctx, core.AllRelKinds, mopts)
		sp := l.close(id)
		rp.layers = append(rp.layers, sp)
		if err != nil {
			return nil, err
		}
		rp.matrixMs, rp.stats, rp.ranCore = sp.ms(), an.Stats(), true
		out := matrixWire(x, m, built, rp.stats.Nodes)
		var body []byte
		err = layer("service.encode", func() (err error) { body, err = json.Marshal(out); return })
		return body, err
	default:
		if err := newAnalyzer(); err != nil {
			return nil, err
		}
		var v any
		if r.kind == kindPair {
			var holds bool
			if err := layer("core.decide", func() (err error) { holds, err = an.Decide(ctx, r.rel, r.a, r.b); return }); err != nil {
				return nil, err
			}
			v = service.PairResult{Rel: r.rel.String(), A: x.Events[r.a].Label, B: x.Events[r.b].Label, Verdict: core.VerdictOf(holds), Nodes: an.Stats().Nodes}
		} else {
			var wit core.Witness
			if err := layer("core.witness", func() (err error) { wit, err = an.WitnessSchedule(ctx, r.rel, r.a, r.b); return }); err != nil {
				return nil, err
			}
			v = service.WitnessResult{Rel: r.rel.String(), A: x.Events[r.a].Label, B: x.Events[r.b].Label, Verdict: core.VerdictOf(wit.Holds), Steps: core.FormatSteps(x, wit.Steps)}
		}
		rp.stats, rp.ranCore = an.Stats(), true
		var body []byte
		err := layer("service.encode", func() (err error) { body, err = json.Marshal(v); return })
		return body, err
	}
}

// matrixWire assembles the service's exported MatrixResult for m.
func matrixWire(x *model.Execution, m *core.MatrixResult, p *plan.Plan, nodes int64) service.MatrixResult {
	out := service.MatrixResult{
		Complete:     m.Complete,
		Relations:    map[string][][2]int{},
		DecidedPairs: m.DecidedPairs(),
		TotalPairs:   m.TotalPairs(),
		Expanded:     m.Expanded,
		Nodes:        nodes,
	}
	for e := range x.NumEvents() {
		out.Events = append(out.Events, x.EventName(model.EventID(e)))
	}
	for _, kind := range m.Kinds {
		out.Relations[kind.String()] = relPairs(m.Relations[kind])
	}
	out.Plan = &service.PlanSummary{TotalPairs: p.TotalPairs, ResiduePairs: p.Residue}
	for _, st := range p.Tiers {
		out.Plan.Tiers = append(out.Plan.Tiers, service.PlanTier{
			Tier: st.Tier.String(), PairsDecided: st.PairsDecided, FactsDecided: st.FactsDecided,
			EventsScanned: st.EventsScanned, Rounds: st.Rounds, OrderedPairs: st.OrderedPairs,
		})
	}
	return out
}

// layerMetrics reduces the traced requests to the per-layer metrics:
// per-request medians for times and allocations, per-request means for
// the engine's exact counts, and ratios. A layer the workload never runs
// reports 0.
func (tr *traceRun) layerMetrics() map[string]float64 {
	spanVals := func(name string, allocs bool) []float64 {
		var vs []float64
		for _, rp := range tr.reqs {
			for _, sp := range rp.layers {
				if sp.Name == name {
					if allocs {
						vs = append(vs, float64(sp.Allocs))
					} else {
						vs = append(vs, sp.ms())
					}
				}
			}
		}
		return vs
	}
	med := func(vs []float64) float64 { return quantile(vs, 0.5) }
	out := map[string]float64{}
	for _, name := range []string{"lang.parse", "interp.run", "traceio.digest", "traceio.load", "plan.build", "core.setup"} {
		out[name+"_ms"] = med(spanVals(name, false))
		out[name+"_allocs"] = med(spanVals(name, true))
	}
	out["core.decide_ms"] = med(spanVals("core.decide", false))
	out["core.witness_ms"] = med(spanVals("core.witness", false))
	out["core.pair_allocs"] = med(append(spanVals("core.decide", true), spanVals("core.witness", true)...))
	out["core.matrix_allocs"] = med(spanVals("core.matrix", true))
	out["service.encode_ms"] = med(spanVals("service.encode", false))

	var steps, tiers [3][]float64
	var fwd, bwd, rest, rests, states, edges, symm, memo, pairStates []float64
	var pairNodes, pairHits, decided, observed, total, zero, plans float64
	for _, rp := range tr.reqs {
		if rp.req.base.source != "" {
			steps[0] = append(steps[0], float64(rp.steps))
		}
		layerSum := 0.0
		for _, sp := range rp.layers {
			layerSum += sp.ms()
		}
		rests = append(rests, rp.httpMs-layerSum)
		if rp.plan != nil {
			plans++
			total += float64(rp.plan.TotalPairs)
			decided += float64(rp.plan.TotalPairs - rp.plan.Residue)
			observed += float64(rp.plan.DecidedByTier(plan.TierObserved))
			if rp.plan.Residue == 0 {
				zero++
			}
			tiers[0] = append(tiers[0], rp.tierMs[0])
			tiers[1] = append(tiers[1], rp.tierMs[1]-rp.tierMs[0])
			tiers[2] = append(tiers[2], rp.tierMs[2]-rp.tierMs[1])
		}
		if !rp.ranCore {
			continue
		}
		if rp.req.kind == kindMatrix {
			fwd = append(fwd, rp.phaseMs["forward"])
			bwd = append(bwd, rp.phaseMs["backward"])
			rest = append(rest, rp.matrixMs-rp.phaseMs["forward"]-rp.phaseMs["backward"])
			states = append(states, float64(rp.stats.Nodes))
			edges = append(edges, float64(rp.stats.Edges))
			symm = append(symm, float64(rp.stats.SymmCollapses))
			memo = append(memo, float64(rp.stats.MemoBytes))
		} else {
			pairStates = append(pairStates, float64(rp.stats.Nodes))
			pairNodes += float64(rp.stats.Nodes)
			pairHits += float64(rp.stats.MemoHits)
		}
	}
	out["interp.steps"] = mean(steps[0])
	out["plan.static_ms"] = med(tiers[0])
	out["plan.observed_ms"] = med(tiers[1])
	out["plan.dag_ms"] = med(tiers[2])
	out["plan.decided_frac"] = ratio(decided, total)
	out["plan.observed_decided_frac"] = ratio(observed, total)
	out["plan.zero_residue_frac"] = ratio(zero, plans)
	out["core.forward_ms"] = med(fwd)
	out["core.backward_ms"] = med(bwd)
	out["core.matrix_rest_ms"] = med(rest)
	out["core.states"] = mean(states)
	out["core.edges"] = mean(edges)
	out["core.symm_collapses"] = mean(symm)
	out["core.memo_bytes"] = mean(memo)
	out["core.pair_states"] = mean(pairStates)
	out["core.pair_memo_hit_frac"] = ratio(pairHits, pairHits+pairNodes)
	out["service.rest_ms"] = med(rests)
	return out
}

// writeArtifacts writes the raw span file and the per-layer summary.
func (tr *traceRun) writeArtifacts(dir, workload string, env map[string]any) error {
	var spans bytes.Buffer
	enc := json.NewEncoder(&spans)
	for _, sp := range tr.log.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(dir, "spans.jsonl"), spans.Bytes()); err != nil {
		return err
	}
	var sum bytes.Buffer
	tr.summarize(&sum, workload, env)
	return writeFile(filepath.Join(dir, "summary.txt"), sum.Bytes())
}

// summarize writes each layer's self time, allocations and counts, and
// ends with the reconciliation of the layer spans against HTTP.
func (tr *traceRun) summarize(w io.Writer, workload string, env map[string]any) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	envJSON, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(bw, "workload %s: %d traced requests\nenv %s\n\n", workload, len(tr.reqs), envJSON)
	self := selfTimes(tr.log.spans)
	type agg struct {
		self, allocs []float64
	}
	layers := map[string]*agg{}
	for i, sp := range tr.log.spans {
		a := layers[sp.Name]
		if a == nil {
			a = &agg{}
			layers[sp.Name] = a
		}
		a.self = append(a.self, self[i])
		a.allocs = append(a.allocs, float64(sp.Allocs))
	}
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(bw, "%-18s %6s %12s %12s %12s\n", "span", "count", "self_med_ms", "self_sum_ms", "allocs_med")
	for _, name := range names {
		a := layers[name]
		fmt.Fprintf(bw, "%-18s %6d %12.4f %12.3f %12.0f\n", name, len(a.self), quantile(a.self, 0.5), sum(a.self), quantile(a.allocs, 0.5))
	}
	fmt.Fprintln(bw)
	m := tr.layerMetrics()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "%-28s %.6g\n", k, m[k])
	}
	var layerSum, httpSum float64
	for _, rp := range tr.reqs {
		for _, sp := range rp.layers {
			layerSum += sp.ms()
		}
		httpSum += rp.httpMs
	}
	fmt.Fprintf(bw, "\nreconciliation: layer spans %.3f ms vs HTTP end-to-end %.3f ms over %d requests; service.rest_ms (median per request) %.4f ms, %.1f%% of end-to-end in total\n",
		layerSum, httpSum, len(tr.reqs), m["service.rest_ms"], 100*ratio(httpSum-layerSum, httpSum))
}

// selfTimes returns each span's duration minus the part of it its
// children cover, in ms.
func selfTimes(spans []*span) []float64 {
	children := map[int][][2]float64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.Start, sp.End})
		}
	}
	out := make([]float64, len(spans))
	for i, sp := range spans {
		iv := children[sp.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, sp.Start
		for _, c := range iv {
			lo, hi := max(c[0], end), min(c[1], sp.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[i] = (sp.End - sp.Start - covered) / 1000
	}
	return out
}

// writeFile writes data through a temporary file and a rename, so an
// interrupted run leaves no partial artifact behind.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; the write error is what matters
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// quantile is the linearly interpolated q-quantile of vs (0 when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
