// Package traceio serializes executions and relations as JSON so the
// command-line tools can exchange them (run a program once, analyze the
// trace many ways).
package traceio

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"eventorder/internal/model"
)

// FormatVersion identifies the trace file layout.
const FormatVersion = 1

type opJSON struct {
	Proc  int    `json:"proc"`
	Event int    `json:"event"`
	Kind  string `json:"kind"`
	Obj   string `json:"obj,omitempty"`
	Stmt  string `json:"stmt,omitempty"`
}

type eventJSON struct {
	Proc  int    `json:"proc"`
	Kind  string `json:"kind"`
	Obj   string `json:"obj,omitempty"`
	Label string `json:"label,omitempty"`
	Ops   []int  `json:"ops"`
}

type procJSON struct {
	Name   string `json:"name"`
	Ops    []int  `json:"ops"`
	Parent int    `json:"parent"`
	ForkOp int    `json:"forkOp"`
}

type semJSON struct {
	Name   string `json:"name"`
	Init   int    `json:"init"`
	Binary bool   `json:"binary,omitempty"`
}

type executionJSON struct {
	Version int             `json:"version"`
	Procs   []procJSON      `json:"procs"`
	Events  []eventJSON     `json:"events"`
	Ops     []opJSON        `json:"ops"`
	Sems    []semJSON       `json:"sems,omitempty"`
	EvInit  map[string]bool `json:"eventVars,omitempty"`
	Order   []int           `json:"order"`
}

var kindNames = map[model.OpKind]string{
	model.OpNop:     "nop",
	model.OpRead:    "read",
	model.OpWrite:   "write",
	model.OpAcquire: "P",
	model.OpRelease: "V",
	model.OpPost:    "post",
	model.OpWait:    "wait",
	model.OpClear:   "clear",
	model.OpFork:    "fork",
	model.OpJoin:    "join",
}

var kindByName = func() map[string]model.OpKind {
	m := map[string]model.OpKind{}
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// SaveExecution writes x as JSON. The execution must be valid.
func SaveExecution(w io.Writer, x *model.Execution) error {
	if err := model.Validate(x); err != nil {
		return fmt.Errorf("traceio: refusing to save invalid execution: %w", err)
	}
	out := executionJSON{
		Version: FormatVersion,
		EvInit:  x.EvInit,
	}
	for i := range x.Procs {
		p := &x.Procs[i]
		pj := procJSON{Name: p.Name, Parent: int(p.Parent), ForkOp: int(p.ForkOp)}
		for _, id := range p.Ops {
			pj.Ops = append(pj.Ops, int(id))
		}
		out.Procs = append(out.Procs, pj)
	}
	for i := range x.Events {
		e := &x.Events[i]
		ej := eventJSON{Proc: int(e.Proc), Kind: kindNames[e.Kind], Obj: e.Obj, Label: e.Label}
		for _, id := range e.Ops {
			ej.Ops = append(ej.Ops, int(id))
		}
		out.Events = append(out.Events, ej)
	}
	for i := range x.Ops {
		op := &x.Ops[i]
		out.Ops = append(out.Ops, opJSON{
			Proc: int(op.Proc), Event: int(op.Event),
			Kind: kindNames[op.Kind], Obj: op.Obj, Stmt: op.Stmt,
		})
	}
	names := make([]string, 0, len(x.Sems))
	for name := range x.Sems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		decl := x.Sems[name]
		out.Sems = append(out.Sems, semJSON{
			Name: name, Init: decl.Init, Binary: decl.Kind == model.SemBinary,
		})
	}
	for _, id := range x.Order {
		out.Order = append(out.Order, int(id))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadExecution reads an execution saved by SaveExecution and validates it.
// It reads r to EOF. Input in the canonical form SaveExecution writes,
// indented or compacted, is decoded in one pass; any other input takes the
// reference encoding/json decode. Both accept the same inputs and return
// the same execution or error.
func LoadExecution(r io.Reader) (*model.Execution, error) {
	x, _, err := load(r)
	return x, err
}

// load is LoadExecution that also reports whether the one-pass decoder
// produced x.
func load(r io.Reader) (x *model.Execution, onePass bool, err error) {
	var src strings.Builder
	if n, ok := r.(interface{ Len() int }); ok {
		src.Grow(n.Len())
	}
	if _, err := io.Copy(&src, r); err != nil {
		// The reference decode sees the bytes read so far, then the error,
		// as it would have reading r itself.
		x, err := loadReference(io.MultiReader(strings.NewReader(src.String()), errReader{err}))
		return x, false, err
	}
	if x, ok := decodeCanonical(src.String()); ok {
		return x, true, nil
	}
	x, err = loadReference(strings.NewReader(src.String()))
	return x, false, err
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// loadReference is the encoding/json decode of the trace format. It
// accepts every input LoadExecution accepts and words every error
// LoadExecution returns.
func loadReference(r io.Reader) (*model.Execution, error) {
	var in executionJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("traceio: unsupported version %d (want %d)", in.Version, FormatVersion)
	}
	x := &model.Execution{
		Sems:   map[string]model.Semaphore{},
		EvInit: map[string]bool{},
	}
	if in.EvInit != nil {
		x.EvInit = in.EvInit
	}
	for i, pj := range in.Procs {
		p := model.Proc{
			ID: model.ProcID(i), Name: pj.Name,
			Parent: model.ProcID(pj.Parent), ForkOp: model.OpID(pj.ForkOp),
		}
		for _, id := range pj.Ops {
			p.Ops = append(p.Ops, model.OpID(id))
		}
		x.Procs = append(x.Procs, p)
	}
	for i, ej := range in.Events {
		kind, ok := kindByName[ej.Kind]
		if !ok {
			return nil, fmt.Errorf("traceio: event %d: unknown kind %q", i, ej.Kind)
		}
		if ej.Proc < 0 || ej.Proc >= len(in.Procs) {
			return nil, fmt.Errorf("traceio: event %d references proc %d out of range", i, ej.Proc)
		}
		e := model.Event{
			ID: model.EventID(i), Proc: model.ProcID(ej.Proc),
			Kind: kind, Obj: ej.Obj, Label: ej.Label,
		}
		for _, id := range ej.Ops {
			if id < 0 || id >= len(in.Ops) {
				return nil, fmt.Errorf("traceio: event %d references op %d out of range", i, id)
			}
			e.Ops = append(e.Ops, model.OpID(id))
		}
		x.Events = append(x.Events, e)
	}
	for i, oj := range in.Ops {
		kind, ok := kindByName[oj.Kind]
		if !ok {
			return nil, fmt.Errorf("traceio: op %d: unknown kind %q", i, oj.Kind)
		}
		x.Ops = append(x.Ops, model.Op{
			ID: model.OpID(i), Proc: model.ProcID(oj.Proc), Event: model.EventID(oj.Event),
			Kind: kind, Obj: oj.Obj, Stmt: oj.Stmt,
		})
	}
	for _, sj := range in.Sems {
		kind := model.SemCounting
		if sj.Binary {
			kind = model.SemBinary
		}
		x.Sems[sj.Name] = model.Semaphore{Name: sj.Name, Init: sj.Init, Kind: kind}
	}
	for _, id := range in.Order {
		if id < 0 || id >= len(x.Ops) {
			return nil, fmt.Errorf("traceio: order references op %d out of range", id)
		}
		x.Order = append(x.Order, model.OpID(id))
	}
	if err := model.Validate(x); err != nil {
		return nil, fmt.Errorf("traceio: loaded execution invalid: %w", err)
	}
	return x, nil
}

type relationJSON struct {
	Name  string   `json:"name"`
	N     int      `json:"n"`
	Pairs [][2]int `json:"pairs"`
}

// SaveRelation writes a relation as JSON.
func SaveRelation(w io.Writer, r *model.Relation) error {
	out := relationJSON{Name: r.Name, N: r.N()}
	for _, p := range r.Pairs() {
		out.Pairs = append(out.Pairs, [2]int{int(p[0]), int(p[1])})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadRelation reads a relation saved by SaveRelation.
func LoadRelation(r io.Reader) (*model.Relation, error) {
	var in relationJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	rel := model.NewRelation(in.Name, in.N)
	for _, p := range in.Pairs {
		if p[0] < 0 || p[0] >= in.N || p[1] < 0 || p[1] >= in.N {
			return nil, fmt.Errorf("traceio: relation pair %v out of range", p)
		}
		rel.Set(model.EventID(p[0]), model.EventID(p[1]))
	}
	return rel, nil
}
