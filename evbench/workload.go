package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/service"
	"eventorder/internal/traceio"
)

// Workload names, as given to --workload.
const (
	wlCorpus = "corpus-fresh"
	wlHeavy  = "exact-heavy"
	wlPair   = "pair-interactive"
)

var workloadNames = []string{wlCorpus, wlHeavy, wlPair}

// Server defaults a program request leaves unset: the service runs the
// program with seed 1 and 64 deadlock-avoiding tries.
const (
	programSeed  = 1
	programTries = 64
)

// reqKind is the shape of one request.
type reqKind int

const (
	kindMatrix  reqKind = iota // all-six-relation matrices
	kindPair                   // one relation, one labelled pair
	kindWitness                // a witness schedule for one pair
)

func (k reqKind) String() string {
	return [...]string{"matrix", "pair", "witness"}[k]
}

// base is one input the stream renames into fresh requests. The
// expectations hold for every renamed variant, because renaming keeps
// the event ids and the state space.
type base struct {
	name string
	// source is the program text for program bases ("" for traces).
	source string
	// x is the execution the server analyzes: the program's run under
	// the server's default seed, or the trace itself.
	x *model.Execution
	// labels lists x's event labels (pair and witness queries).
	labels []string
	// expect holds the expected relations and how they were computed.
	expect map[core.RelKind]*model.Relation
	method string
	// pairs is expect as the sorted pair lists of a MatrixResult.
	pairs map[string][][2]int
}

// request is one element of the seeded request stream.
type request struct {
	index  int
	path   string
	body   []byte
	base   *base
	kind   reqKind
	rel    core.RelKind
	a, b   model.EventID
	repeat bool // an exact repeat of an earlier request
}

// workload is a seeded, deterministic request stream over a set of bases.
type workload struct {
	name  string
	seed  int64
	bases []*base
	// randomBases counts the generated programs at the front of bases
	// (corpus-fresh only); the rest are testdata idioms.
	randomBases int
}

// Stream sizes. The corpus pool is large enough that its mean cost varies
// little between seeds: the engine cost of a pool of 128 programs varied
// by 10.5% (coefficient of variation over 200 pools), of 512 by 4.7%.
const (
	corpusRandomPool = 512
	repeatWindow     = 32 // a repeat copies one of the last repeatWindow requests
)

// newWorkload builds the named workload's bases for seed. root is the
// repository root (testdata idioms). Expectations are not computed here;
// see computeExpectations.
func newWorkload(name string, seed int64, root string) (*workload, error) {
	w := &workload{name: name, seed: seed}
	var err error
	switch name {
	case wlCorpus:
		err = w.addCorpus(root, corpusRandomPool)
	case wlHeavy:
		err = w.addTraces(heavyShapes())
	case wlPair:
		err = w.addTraces(pairShapes())
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// shape is a named trace generator.
type shape struct {
	name  string
	build func() (*model.Execution, error)
}

// heavyShapes are the exact-heavy traces: large state spaces, each
// taking tens of milliseconds alone, with different reductions at work.
func heavyShapes() []shape {
	return []shape{
		{"barrier-ring5", func() (*model.Execution, error) { return gen.Barrier(5) }},
		{"forkjoin5", func() (*model.Execution, error) { return gen.ForkJoinTree(5) }},
		{"sym-barrier6", func() (*model.Execution, error) { return symmetricBarrier(6) }},
		{"prodcons3x3x2", func() (*model.Execution, error) { return gen.ProducerConsumer(3, 3, 2) }},
	}
}

// pairShapes are the pair-interactive traces. The 4-worker variants are
// left out: their pair queries are all cheap, and with them about one
// request in ten is a costly 5-worker query, so p90 fell on the gap
// between the two modes (the 92nd percentile of the engine cost was 3.3
// times the 88th, against 1.3 times with the 5-worker traces alone).
func pairShapes() []shape {
	return []shape{
		{"barrier-ring5", func() (*model.Execution, error) { return gen.Barrier(5) }},
		{"forkjoin5", func() (*model.Execution, error) { return gen.ForkJoinTree(5) }},
	}
}

// symmetricBarrier is gen.Barrier without the data ring: n interchangeable
// workers with labelled computation events before and after a semaphore
// barrier, so the symmetry detector proves one class of n.
func symmetricBarrier(n int) (*model.Execution, error) {
	b := model.NewBuilder()
	b.Sem("arrive", 0, model.SemCounting)
	b.Sem("release", 0, model.SemCounting)
	coord := b.Proc("coordinator")
	for i := 0; i < n; i++ {
		coord.P("arrive")
	}
	for i := 0; i < n; i++ {
		coord.V("release")
	}
	for p := 0; p < n; p++ {
		pb := b.Proc(fmt.Sprintf("w%d", p))
		pb.Label(fmt.Sprintf("before%d", p)).Nop()
		pb.V("arrive")
		pb.P("release")
		pb.Label(fmt.Sprintf("after%d", p)).Nop()
	}
	return b.Build()
}

func (w *workload) addTraces(shapes []shape) error {
	for _, s := range shapes {
		x, err := s.build()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		w.bases = append(w.bases, &base{name: s.name, x: x, labels: x.Labels()})
	}
	return nil
}

// addCorpus adds pool seeded random programs and every testdata idiom.
// A program is kept only if it completes under the server's default
// schedule and renaming changes its digest (a program whose run touches
// no semaphore, event variable or shared variable cannot be made fresh).
func (w *workload) addCorpus(root string, pool int) error {
	rng := rand.New(rand.NewSource(int64(mix(uint64(w.seed), 0x636f72707573))))
	opts := gen.RandomProgramOptions{Procs: 3, StmtsPerProc: 4, Sems: 2, Events: 2, Vars: 2, SemInit: 1, Branches: true}
	for tries := 0; len(w.bases) < pool; tries++ {
		if tries > 50*pool {
			return fmt.Errorf("corpus: only %d usable random programs in %d tries", len(w.bases), tries)
		}
		src := gen.RandomProgramSource(rng, opts)
		b, err := programBase(fmt.Sprintf("random%03d", len(w.bases)), src)
		if err != nil {
			continue
		}
		if fresh, err := renamingIsFresh(b); err != nil || !fresh {
			continue
		}
		w.bases = append(w.bases, b)
	}
	w.randomBases = len(w.bases)
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "*.evo"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("corpus: no testdata/*.evo under %s", root)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), ".evo")
		b, err := programBase(name, string(src))
		if err != nil {
			return fmt.Errorf("corpus: %s: %w", path, err)
		}
		if fresh, err := renamingIsFresh(b); err != nil || !fresh {
			return fmt.Errorf("corpus: %s: renaming does not give a fresh digest (%v)", path, err)
		}
		w.bases = append(w.bases, b)
	}
	return nil
}

// programBase parses and runs src the way the server will.
func programBase(name, src string) (*base, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := interp.RunAvoidingDeadlock(prog, programTries, programSeed)
	if err != nil {
		return nil, err
	}
	return &base{name: name, source: lang.Format(prog), x: res.X, labels: res.X.Labels()}, nil
}

// renamingIsFresh reports whether a renamed variant of b has another
// execution digest than b itself.
func renamingIsFresh(b *base) (bool, error) {
	x, err := b.variant("zz0_")
	if err != nil {
		return false, err
	}
	d0, err := digest(b.x)
	if err != nil {
		return false, err
	}
	d1, err := digest(x)
	return d0 != d1, err
}

// digest is the service's execution digest: sha256 over the canonical
// trace serialization.
func digest(x *model.Execution) (string, error) {
	h := sha256.New()
	if err := traceio.SaveExecution(h, x); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// variant returns the execution the server sees for b renamed with prefix.
func (b *base) variant(prefix string) (*model.Execution, error) {
	if b.source == "" {
		return renameExecution(b.x, prefix), nil
	}
	src, err := renameProgram(b.source, prefix)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := interp.RunAvoidingDeadlock(prog, programTries, programSeed)
	if err != nil {
		return nil, err
	}
	return res.X, nil
}

// Renaming. Every semaphore, event variable and shared variable gets the
// same prefix, which keeps their relative order, so the renamed input has
// the same structure and state space under a new digest. Process names
// and labels stay, so pair queries name the same events.

// renameProgram renames src's semaphores, event variables and shared
// variables.
func renameProgram(src, prefix string) (string, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	for i := range prog.Sems {
		prog.Sems[i].Name = prefix + prog.Sems[i].Name
	}
	for i := range prog.Events {
		prog.Events[i].Name = prefix + prog.Events[i].Name
	}
	for i := range prog.Vars {
		prog.Vars[i].Name = prefix + prog.Vars[i].Name
	}
	for i := range prog.Procs {
		renameStmts(prog.Procs[i].Body, prefix)
	}
	return lang.Format(prog), nil
}

func renameStmts(body []lang.Stmt, prefix string) {
	for _, s := range body {
		switch st := s.(type) {
		case *lang.AssignStmt:
			st.Var = prefix + st.Var
			renameExpr(st.Expr, prefix)
		case *lang.SemStmt:
			st.Sem = prefix + st.Sem
		case *lang.EventStmt:
			st.Event = prefix + st.Event
		case *lang.IfStmt:
			renameExpr(st.Cond, prefix)
			renameStmts(st.Then, prefix)
			renameStmts(st.Else, prefix)
		case *lang.WhileStmt:
			renameExpr(st.Cond, prefix)
			renameStmts(st.Body, prefix)
		}
	}
}

func renameExpr(e lang.Expr, prefix string) {
	switch ex := e.(type) {
	case *lang.VarRef:
		ex.Name = prefix + ex.Name
	case *lang.UnaryExpr:
		renameExpr(ex.X, prefix)
	case *lang.BinaryExpr:
		renameExpr(ex.X, prefix)
		renameExpr(ex.Y, prefix)
	}
}

// renamesObj reports whether an op or event of kind k names a semaphore,
// event variable or shared variable (fork and join name processes).
func renamesObj(k model.OpKind) bool {
	switch k {
	case model.OpAcquire, model.OpRelease, model.OpPost, model.OpWait, model.OpClear, model.OpRead, model.OpWrite:
		return true
	}
	return false
}

// renameExecution returns a copy of x with its semaphores, event
// variables and shared variables renamed. Unchanged parts are shared.
func renameExecution(x *model.Execution, prefix string) *model.Execution {
	y := &model.Execution{
		Procs:  x.Procs,
		Events: append([]model.Event(nil), x.Events...),
		Ops:    append([]model.Op(nil), x.Ops...),
		Sems:   make(map[string]model.Semaphore, len(x.Sems)),
		EvInit: make(map[string]bool, len(x.EvInit)),
		Order:  x.Order,
	}
	for i := range y.Events {
		if renamesObj(y.Events[i].Kind) {
			y.Events[i].Obj = prefix + y.Events[i].Obj
		}
	}
	for i := range y.Ops {
		if renamesObj(y.Ops[i].Kind) {
			y.Ops[i].Obj = prefix + y.Ops[i].Obj
		}
	}
	for name, s := range x.Sems {
		s.Name = prefix + name
		y.Sems[prefix+name] = s
	}
	for name, v := range x.EvInit {
		y.EvInit[prefix+name] = v
	}
	return y
}

// The request stream. Request i is a pure function of the seed and i, so
// the stream is the same whichever connection sends a request, and the
// traced run replays exactly the requests the timed run sent first.

// prefixFor is request i's renaming prefix: unique per request, so every
// fresh request has a digest the server has not seen.
func (w *workload) prefixFor(i int) string {
	return fmt.Sprintf("q%x_%d_", uint32(mix(uint64(w.seed), 0x6e616d65)), i)
}

// request builds request i of the stream.
func (w *workload) request(i int) (request, error) {
	rng := newPRNG(uint64(w.seed), uint64(i))
	switch w.name {
	case wlCorpus:
		var b *base
		if i%4 == 3 {
			idioms := w.bases[w.randomBases:]
			b = idioms[(i/4)%len(idioms)]
		} else {
			b = w.bases[rng.intn(w.randomBases)]
		}
		src, err := renameProgram(b.source, w.prefixFor(i))
		if err != nil {
			return request{}, err
		}
		body, err := json.Marshal(service.AnalyzeRequest{ExecutionSource: service.ExecutionSource{Program: src}, All: true})
		return request{index: i, path: "/v1/analyze", body: body, base: b, kind: kindMatrix}, err
	case wlHeavy:
		b := w.bases[(i+int(uint64(w.seed)%4))%len(w.bases)]
		raw, err := traceJSON(renameExecution(b.x, w.prefixFor(i)))
		if err != nil {
			return request{}, err
		}
		body, err := json.Marshal(service.AnalyzeRequest{ExecutionSource: service.ExecutionSource{Execution: raw}, All: true})
		return request{index: i, path: "/v1/analyze", body: body, base: b, kind: kindMatrix}, err
	case wlPair:
		if i > 0 && rng.intn(4) == 0 {
			r, err := w.request(i - 1 - rng.intn(min(i, repeatWindow)))
			r.index, r.repeat = i, true
			return r, err
		}
		b := w.bases[rng.intn(len(w.bases))]
		ia := rng.intn(len(b.labels))
		ib := rng.intn(len(b.labels) - 1)
		if ib >= ia {
			ib++
		}
		la, lb := b.labels[ia], b.labels[ib]
		r := request{index: i, base: b, kind: kindPair, path: "/v1/analyze", rel: core.AllRelKinds[rng.intn(len(core.AllRelKinds))]}
		r.a, r.b = b.x.MustEventByLabel(la).ID, b.x.MustEventByLabel(lb).ID
		if rng.intn(3) == 0 {
			r.kind, r.path = kindWitness, "/v1/witness"
		}
		raw, err := traceJSON(renameExecution(b.x, w.prefixFor(i)))
		if err != nil {
			return request{}, err
		}
		src := service.ExecutionSource{Execution: raw}
		if r.kind == kindWitness {
			r.body, err = json.Marshal(service.WitnessRequest{ExecutionSource: src, Rel: r.rel.String(), A: la, B: lb})
		} else {
			r.body, err = json.Marshal(service.AnalyzeRequest{ExecutionSource: src, Rel: r.rel.String(), A: la, B: lb})
		}
		return r, err
	}
	return request{}, fmt.Errorf("unknown workload %q", w.name)
}

// traceJSON serializes x in the traceio wire format.
func traceJSON(x *model.Execution) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := traceio.SaveExecution(&buf, x); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prng is splitmix64: small, fast and seeded per request, so a request
// costs no math/rand source allocation.
type prng struct{ s uint64 }

func newPRNG(seed, stream uint64) *prng { return &prng{s: mix(seed, stream)} }

func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 ^ (b + 0x632be59bd9b4e019)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	return mix(p.s, 0)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }
