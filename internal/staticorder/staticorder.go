// Package staticorder implements a Callahan–Subhlok-style static analysis
// (the third related-work system in the paper's Section 4): for a loop-free
// program using fork/join and event-style synchronization WITHOUT Clear
// operations, it computes statement orderings guaranteed in every execution
// of the program — before any execution is observed.
//
// Callahan and Subhlok prove that computing ALL such guaranteed orderings
// is co-NP-hard and give a data-flow framework for a safe subset; this
// package implements the same flavor of approximation:
//
//   - intra-process control reachability (loop-free, so every path through
//     a process visits statements in fixed relative order);
//   - fork edges (forker's prefix precedes the whole child) and join edges
//     (the whole child precedes the joiner's suffix);
//   - synchronization edges: a Wait on event variable e is guaranteed-after
//     every statement u that is guaranteed-before ALL posts of e that could
//     still trigger it (and after the post itself when exactly one
//     candidate remains) — iterated to a fixpoint, since new orderings
//     prune candidates.
//
// The result quantifies over every program execution, so it is a sound
// under-approximation of the paper's trace-level MHB relation (with the
// Section 5.3 dependence-free feasibility) restricted to events that
// actually executed; experiment E12 measures the gap against the exact
// engine — the gap is structural: the static analysis cannot use branch
// outcomes or shared-data dependences.
//
// Programs containing while loops or Clear operations are rejected: loops
// break the statement-instance correspondence, and Clear is exactly the
// primitive whose absence the paper lists as an open problem for this
// analysis style.
package staticorder

import (
	"fmt"
	"sort"

	"eventorder/internal/dag"
	"eventorder/internal/lang"
)

// node is one statement occurrence in the flattened program.
type node struct {
	id    int
	proc  int
	stmt  lang.Stmt
	label string
}

// Result is the computed guaranteed-ordering relation.
type Result struct {
	prog   *lang.Program
	nodes  []node
	byLbl  map[string]int
	clo    *dag.Closure
	g      *dag.Graph
	rounds int
}

// Analyze computes the static guaranteed orderings of a loop-free,
// Clear-free program.
func Analyze(p *lang.Program) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Result{prog: p, byLbl: map[string]int{}}

	// Flatten: collect nodes per process; record first/last node sets and
	// intra-process ordering edges.
	type procInfo struct {
		first, last []int // entry/exit node ids (branches make these sets)
		all         []int
	}
	infos := make([]procInfo, len(p.Procs))
	var g *dag.Graph // built after counting nodes
	var edges [][2]int
	addEdge := func(u, v int) { edges = append(edges, [2]int{u, v}) }

	var flattenErr error
	// flatten returns the entry node ids and exit node ids of a body.
	var flatten func(proc int, body []lang.Stmt) (entries, exits []int)
	newNode := func(proc int, s lang.Stmt) int {
		id := len(r.nodes)
		n := node{id: id, proc: proc, stmt: s, label: s.StmtLabel()}
		r.nodes = append(r.nodes, n)
		if n.label != "" {
			r.byLbl[n.label] = id
		}
		infos[proc].all = append(infos[proc].all, id)
		return id
	}
	flatten = func(proc int, body []lang.Stmt) (entries, exits []int) {
		var prevExits []int
		for _, s := range body {
			switch st := s.(type) {
			case *lang.WhileStmt:
				flattenErr = fmt.Errorf("staticorder: %s: while loops are not supported (statement instances are unbounded)", st.Pos)
				return nil, nil
			case *lang.EventStmt:
				if st.Op == lang.EvClear {
					flattenErr = fmt.Errorf("staticorder: %s: Clear operations are not supported (the analysis covers the Clear-free fragment)", st.Pos)
					return nil, nil
				}
			}
			if ifs, ok := s.(*lang.IfStmt); ok {
				condNode := newNode(proc, s)
				if len(entries) == 0 {
					entries = []int{condNode}
				}
				for _, pe := range prevExits {
					addEdge(pe, condNode)
				}
				var branchExits []int
				for _, branch := range [][]lang.Stmt{ifs.Then, ifs.Else} {
					if len(branch) == 0 {
						branchExits = append(branchExits, condNode)
						continue
					}
					bEntries, bExits := flatten(proc, branch)
					if flattenErr != nil {
						return nil, nil
					}
					for _, be := range bEntries {
						addEdge(condNode, be)
					}
					branchExits = append(branchExits, bExits...)
				}
				prevExits = branchExits
				continue
			}
			id := newNode(proc, s)
			if len(entries) == 0 {
				entries = []int{id}
			}
			for _, pe := range prevExits {
				addEdge(pe, id)
			}
			prevExits = []int{id}
		}
		return entries, prevExits
	}

	procIdx := map[string]int{}
	for i := range p.Procs {
		procIdx[p.Procs[i].Name] = i
	}
	for i := range p.Procs {
		entries, exits := flatten(i, p.Procs[i].Body)
		if flattenErr != nil {
			return nil, flattenErr
		}
		infos[i].first = entries
		infos[i].last = exits
	}

	g = dag.New(len(r.nodes))
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	// Fork/join edges.
	for id := range r.nodes {
		switch st := r.nodes[id].stmt.(type) {
		case *lang.ForkStmt:
			ci := procIdx[st.Proc]
			for _, first := range infos[ci].first {
				g.AddEdge(id, first)
			}
		case *lang.JoinStmt:
			ci := procIdx[st.Proc]
			for _, last := range infos[ci].last {
				g.AddEdge(last, id)
			}
		}
	}
	r.g = g

	// Fixpoint: add synchronization edges.
	posted := map[string]bool{}
	for _, d := range p.Events {
		if d.Posted {
			posted[d.Name] = true
		}
	}
	for {
		r.rounds++
		clo, ok := g.TransitiveClosure()
		if !ok {
			return nil, fmt.Errorf("staticorder: ordering graph became cyclic (inconsistent sync structure)")
		}
		r.clo = clo
		changed := false
		for w := range r.nodes {
			ws, ok := r.nodes[w].stmt.(*lang.EventStmt)
			if !ok || ws.Op != lang.EvWait {
				continue
			}
			if posted[ws.Event] {
				continue // a pre-posted variable can trigger any wait
			}
			// Candidate posts: those not guaranteed-after the wait.
			var cands []int
			for pid := range r.nodes {
				ps, ok := r.nodes[pid].stmt.(*lang.EventStmt)
				if !ok || ps.Op != lang.EvPost || ps.Event != ws.Event {
					continue
				}
				if clo.Reachable(w, pid) {
					continue
				}
				cands = append(cands, pid)
			}
			if len(cands) == 0 {
				continue // wait can never fire; unreachable suffix
			}
			if len(cands) == 1 {
				if g.AddEdge(cands[0], w) {
					changed = true
				}
				continue
			}
			// Common guaranteed ancestors of all candidates.
			for u := range r.nodes {
				all := true
				for _, pid := range cands {
					if u == pid || !clo.Reachable(u, pid) {
						all = false
						break
					}
				}
				if all && g.AddEdge(u, w) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return r, nil
}

// Precedes reports whether the statement labeled a is guaranteed to
// complete before the statement labeled b begins in every execution of the
// program in which both execute.
func (r *Result) Precedes(a, b string) (bool, error) {
	ia, ok := r.byLbl[a]
	if !ok {
		return false, fmt.Errorf("staticorder: no statement labeled %q", a)
	}
	ib, ok := r.byLbl[b]
	if !ok {
		return false, fmt.Errorf("staticorder: no statement labeled %q", b)
	}
	return r.clo.Reachable(ia, ib), nil
}

// Labels returns the labeled statements, sorted.
func (r *Result) Labels() []string {
	out := make([]string, 0, len(r.byLbl))
	for l := range r.byLbl {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the number of statement nodes.
func (r *Result) NumNodes() int { return len(r.nodes) }

// Rounds returns the number of fixpoint iterations used.
func (r *Result) Rounds() int { return r.rounds }

// Pairs returns all guaranteed-ordered labeled pairs as "a b" tuples.
func (r *Result) Pairs() [][2]string {
	labels := r.Labels()
	var out [][2]string
	for _, a := range labels {
		for _, b := range labels {
			if a == b {
				continue
			}
			if ok, _ := r.Precedes(a, b); ok {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}
