// Package unify implements associative unification for path-expression
// equations: Plotkin's pig-pug procedure for word equations (paper
// §4.3.1, rules (a)–(g)) extended with atomic variables and packing
// (paper §4.3.2, rules (h)–(m)).
//
// The solver is guaranteed to terminate with a finite complete set of
// symbolic solutions on one-sided nonlinear equations (citing Durán et
// al. [15] as the paper does); on other equations it runs under a state
// budget and reports possible incompleteness.
//
// Solutions follow the paper's convention of reusing variable names for
// "remainders": in a binding like $x -> $u.$x, the $x on the right is a
// fresh variable that happens to share the original's name.
package unify

import (
	"fmt"
	"sort"

	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// Equation is e1 = e2 over path expressions.
type Equation struct {
	L, R ast.Expr
}

// String renders the equation.
func (e Equation) String() string { return e.L.String() + " = " + e.R.String() }

// key is the canonical injective string encoding of the equation. It is
// only used for the Figure-2 graph node table (cold path, CollectGraph
// only); the memoization of explore uses the allocation-free hash below
// with structural-equality collision confirmation.
func (e Equation) key() string { return e.L.Key() + "\x00" + e.R.Key() }

// hash folds a structural hash of both sides, using the interned cached
// hashes of the expressions' constants. Distinct equations may collide;
// confirm with Equal.
func (e Equation) hash() uint64 {
	h := e.L.Hash(value.HashSeed)
	h = value.HashByte(h, 0x1e)
	return e.R.Hash(h)
}

// Equal reports syntactic equality of equations.
func (e Equation) Equal(f Equation) bool { return e.L.Equal(f.L) && e.R.Equal(f.R) }

// Vars returns the variables of the equation in first-occurrence order.
func (e Equation) Vars() []ast.Var { return ast.VarsOf(e.L, e.R) }

// OneSidedNonlinear reports whether every variable occurring more than
// once in the equation occurs in only one side (§4.3.1); pig-pug
// terminates on such equations.
func (e Equation) OneSidedNonlinear() bool {
	left, right := map[ast.Var]int{}, map[ast.Var]int{}
	e.L.VarOccurrences(left)
	e.R.VarOccurrences(right)
	for v, nl := range left {
		if nl+right[v] >= 2 && right[v] > 0 {
			return false
		}
	}
	return true
}

// Options configure the solver.
type Options struct {
	// AllowEmpty applies the footnote-4 closure: for every subset Y of
	// the equation's path variables, solve with Y replaced by ε; the
	// union of the resulting solution sets is complete for solutions
	// that may map path variables to the empty path.
	AllowEmpty bool
	// MaxStates bounds the number of distinct states explored per
	// (sub-)equation; 0 means the default.
	MaxStates int
	// CollectGraph records the search DAG (Figure 2) in Result.Graph.
	CollectGraph bool
}

// DefaultMaxStates bounds exploration of non-one-sided-nonlinear
// equations, for which pig-pug may not terminate.
const DefaultMaxStates = 20000

// Result is the outcome of solving an equation.
type Result struct {
	// Solutions is a set of symbolic solutions; when Complete is true it
	// is a complete set in the sense of §4.3.1.
	Solutions []ast.Subst
	// Complete is false when the search was truncated (state budget or
	// a cycle in the rewrite system).
	Complete bool
	// States is the number of distinct states explored.
	States int
	// Graph is the search DAG when Options.CollectGraph is set.
	Graph *Graph
}

// Graph is the search DAG over equations, as drawn in Figure 2.
type Graph struct {
	Nodes []GraphNode
	Edges []GraphEdge
}

// GraphNode is one equation state.
type GraphNode struct {
	ID      int
	Eq      Equation
	Success bool // the ε=ε leaf
	Fail    bool // a non-successful leaf
}

// GraphEdge is one rewrite step, labelled with its substitution
// (empty for cancellation steps).
type GraphEdge struct {
	From, To int
	Rho      ast.Subst
}

// Solve computes a set of symbolic solutions for the equation. On
// one-sided nonlinear input with sufficient state budget the set is
// complete (Result.Complete reports this).
func Solve(eq Equation, opts Options) Result {
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if !opts.AllowEmpty {
		return solveNonempty(eq, opts)
	}
	// Footnote-4 closure over subsets of path variables.
	var pathVars []ast.Var
	for _, v := range eq.Vars() {
		if !v.Atomic {
			pathVars = append(pathVars, v)
		}
	}
	agg := Result{Complete: true}
	seen := map[string]bool{}
	for mask := 0; mask < 1<<len(pathVars); mask++ {
		zero := ast.Subst{}
		for i, v := range pathVars {
			if mask&(1<<i) != 0 {
				zero[v] = ast.Eps()
			}
		}
		sub := Equation{L: zero.Apply(eq.L), R: zero.Apply(eq.R)}
		r := solveNonempty(sub, opts)
		agg.States += r.States
		if !r.Complete {
			agg.Complete = false
		}
		if mask == 0 {
			agg.Graph = r.Graph
		}
		for _, s := range r.Solutions {
			full := ast.Subst{}
			for v, e := range zero {
				full[v] = e
			}
			for v, e := range s {
				full[v] = e
			}
			k := full.String()
			if !seen[k] {
				seen[k] = true
				agg.Solutions = append(agg.Solutions, full)
			}
		}
	}
	sortSolutions(agg.Solutions)
	return agg
}

type solver struct {
	opts Options
	// states memoizes explored equations, bucketed by structural hash
	// with Equal confirming collisions — no canonical Key() strings are
	// built on the hot path.
	states   map[uint64][]*stateInfo
	nstates  int
	complete bool
	graph    *Graph
	nodeIDs  map[string]int
}

type stateInfo struct {
	eq     Equation
	status int // 0 = in progress, 1 = done
	sols   []ast.Subst
}

// lookup returns the memo entry for eq in the bucket h, or nil.
func (s *solver) lookup(h uint64, eq Equation) *stateInfo {
	for _, info := range s.states[h] {
		if info.eq.Equal(eq) {
			return info
		}
	}
	return nil
}

func solveNonempty(eq Equation, opts Options) Result {
	s := &solver{
		opts:     opts,
		states:   map[uint64][]*stateInfo{},
		complete: true,
	}
	if opts.CollectGraph {
		s.graph = &Graph{}
		s.nodeIDs = map[string]int{}
	}
	sols := s.explore(eq)
	out := make([]ast.Subst, len(sols))
	copy(out, sols)
	sortSolutions(out)
	return Result{
		Solutions: out,
		Complete:  s.complete,
		States:    s.nstates,
		Graph:     s.graph,
	}
}

func sortSolutions(sols []ast.Subst) {
	sort.Slice(sols, func(i, j int) bool { return sols[i].String() < sols[j].String() })
}

func (s *solver) node(eq Equation, success, fail bool) int {
	if s.graph == nil {
		return -1
	}
	k := eq.key()
	if id, ok := s.nodeIDs[k]; ok {
		s.graph.Nodes[id].Success = s.graph.Nodes[id].Success || success
		s.graph.Nodes[id].Fail = s.graph.Nodes[id].Fail || fail
		return id
	}
	id := len(s.graph.Nodes)
	s.nodeIDs[k] = id
	s.graph.Nodes = append(s.graph.Nodes, GraphNode{ID: id, Eq: eq, Success: success, Fail: fail})
	return id
}

// explore returns the (possibly memoized) solutions reachable from eq.
func (s *solver) explore(eq Equation) []ast.Subst {
	h := eq.hash()
	if info := s.lookup(h, eq); info != nil {
		if info.status == 0 {
			// Cycle: the rewrite system does not terminate from here.
			s.complete = false
			return nil
		}
		return info.sols
	}
	if s.nstates >= s.opts.MaxStates {
		s.complete = false
		return nil
	}
	info := &stateInfo{eq: eq}
	s.states[h] = append(s.states[h], info)
	s.nstates++

	edges, leaf := s.children(eq)
	from := s.node(eq, leaf == leafSuccess, leaf == leafFail)
	var sols []ast.Subst
	switch leaf {
	case leafSuccess:
		sols = []ast.Subst{{}}
	case leafFail:
		// no solutions
	default:
		seen := map[string]bool{}
		for _, e := range edges {
			to := s.node(e.next, false, false)
			if s.graph != nil {
				s.graph.Edges = append(s.graph.Edges, GraphEdge{From: from, To: to, Rho: e.rho})
			}
			for _, child := range s.explore(e.next) {
				sol := e.rho.Compose(child)
				key := sol.String()
				if !seen[key] {
					seen[key] = true
					sols = append(sols, sol)
				}
			}
		}
	}
	info.status = 1
	info.sols = sols
	return sols
}

const (
	leafNone = iota
	leafSuccess
	leafFail
)

type edge struct {
	rho  ast.Subst
	next Equation
}

// children implements the rewrite relation ⇒: cancellation, main rules
// (a)–(g), and the extensions (h)–(m) of §4.3.2.
func (s *solver) children(eq Equation) ([]edge, int) {
	L, R := eq.L, eq.R
	if len(L) == 0 && len(R) == 0 {
		return nil, leafSuccess
	}
	if len(L) == 0 || len(R) == 0 {
		// (ε = w) or (w = ε) with w nonempty: not successful under the
		// nonempty-assignment semantics.
		return nil, leafFail
	}
	l0, r0 := L[0], R[0]
	w1, w2 := L[1:], R[1:]

	// Cancellation rule for x ∈ dom ∪ X.
	if lc, ok := l0.(ast.Const); ok {
		if rc, ok := r0.(ast.Const); ok {
			if lc.A == rc.A {
				return []edge{{rho: ast.Subst{}, next: Equation{L: w1, R: w2}}}, leafNone
			}
			return nil, leafFail // (a·w1 = b·w2), a ≠ b
		}
	}
	if lv, ok := l0.(ast.VarT); ok {
		if rv, ok := r0.(ast.VarT); ok && lv.V == rv.V {
			return []edge{{rho: ast.Subst{}, next: Equation{L: w1, R: w2}}}, leafNone
		}
	}

	mk := func(rho ast.Subst, keepLeft, keepRight ast.Expr) edge {
		// next = (keepLeft · rho(w1), keepRight · rho(w2)) where keepX is
		// the retained head term (or empty).
		return edge{rho: rho, next: Equation{
			L: ast.Cat(keepLeft, rho.Apply(w1)),
			R: ast.Cat(keepRight, rho.Apply(w2)),
		}}
	}

	switch lt := l0.(type) {
	case ast.VarT:
		x := lt.V
		switch rt := r0.(type) {
		case ast.VarT:
			y := rt.V
			switch {
			case !x.Atomic && !y.Atomic:
				// Main rules (a), (b), (c) for distinct path variables.
				return []edge{
					mk(ast.Subst{x: ast.Cat(ast.Expr{rt}, ast.Expr{lt})}, ast.Expr{lt}, nil),
					mk(ast.Subst{x: ast.Expr{rt}}, nil, nil),
					mk(ast.Subst{y: ast.Cat(ast.Expr{lt}, ast.Expr{rt})}, nil, ast.Expr{rt}),
				}, leafNone
			case x.Atomic && y.Atomic:
				// Rule (h): distinct atomic variables must coincide.
				return []edge{mk(ast.Subst{x: ast.Expr{rt}}, nil, nil)}, leafNone
			case x.Atomic && !y.Atomic:
				// Rule (i): @x versus $y behaves like a constant vs $y.
				return []edge{
					mk(ast.Subst{y: ast.Cat(ast.Expr{lt}, ast.Expr{rt})}, nil, ast.Expr{rt}),
					mk(ast.Subst{y: ast.Expr{lt}}, nil, nil),
				}, leafNone
			default: // $x versus @y: rule (j).
				return []edge{
					mk(ast.Subst{x: ast.Cat(ast.Expr{rt}, ast.Expr{lt})}, ast.Expr{lt}, nil),
					mk(ast.Subst{x: ast.Expr{rt}}, nil, nil),
				}, leafNone
			}
		case ast.Const:
			if x.Atomic {
				// @x must equal the constant.
				return []edge{mk(ast.Subst{x: ast.Expr{rt}}, nil, nil)}, leafNone
			}
			// Rules (d), (e): $x versus constant a.
			return []edge{
				mk(ast.Subst{x: ast.Cat(ast.Expr{rt}, ast.Expr{lt})}, ast.Expr{lt}, nil),
				mk(ast.Subst{x: ast.Expr{rt}}, nil, nil),
			}, leafNone
		case ast.Pack:
			if x.Atomic {
				// (@x·w1 = <w2>·w3): non-successful leaf (§4.3.2).
				return nil, leafFail
			}
			// Rule (m): $x versus <v>.
			return []edge{
				mk(ast.Subst{x: ast.Cat(ast.Expr{rt}, ast.Expr{lt})}, ast.Expr{lt}, nil),
				mk(ast.Subst{x: ast.Expr{rt}}, nil, nil),
			}, leafNone
		}
	case ast.Const:
		switch rt := r0.(type) {
		case ast.VarT:
			y := rt.V
			if y.Atomic {
				return []edge{mk(ast.Subst{y: ast.Expr{lt}}, nil, nil)}, leafNone
			}
			// Rules (f), (g): constant a versus $y.
			return []edge{
				mk(ast.Subst{y: ast.Cat(ast.Expr{lt}, ast.Expr{rt})}, nil, ast.Expr{rt}),
				mk(ast.Subst{y: ast.Expr{lt}}, nil, nil),
			}, leafNone
		case ast.Pack:
			return nil, leafFail
		}
	case ast.Pack:
		switch rt := r0.(type) {
		case ast.VarT:
			y := rt.V
			if y.Atomic {
				return nil, leafFail
			}
			// Rule (l): <u> versus $y.
			return []edge{
				mk(ast.Subst{y: ast.Cat(ast.Expr{lt}, ast.Expr{rt})}, nil, ast.Expr{rt}),
				mk(ast.Subst{y: ast.Expr{lt}}, nil, nil),
			}, leafNone
		case ast.Const:
			return nil, leafFail
		case ast.Pack:
			// Rule (k): solve the inner equation first, then continue
			// with each inner solution applied to the remainders.
			inner := solveNonempty(Equation{L: lt.E, R: rt.E}, Options{MaxStates: s.opts.MaxStates})
			if !inner.Complete {
				s.complete = false
			}
			var out []edge
			for _, rho := range inner.Solutions {
				out = append(out, mk(rho, nil, nil))
			}
			if len(out) == 0 {
				return nil, leafFail
			}
			return out, leafNone
		}
	}
	return nil, leafFail
}

// DOT renders the search DAG in Graphviz format, for Figure 2-style
// visualization.
func (g *Graph) DOT() string {
	out := "digraph pigpug {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n"
	for _, n := range g.Nodes {
		attrs := ""
		if n.Success {
			attrs = ", style=bold, color=green"
		} else if n.Fail {
			attrs = ", color=red"
		}
		out += fmt.Sprintf("  n%d [label=%q%s];\n", n.ID, n.Eq.String(), attrs)
	}
	for _, e := range g.Edges {
		label := ""
		if len(e.Rho) > 0 {
			label = e.Rho.String()
		}
		out += fmt.Sprintf("  n%d -> n%d [label=%q];\n", e.From, e.To, label)
	}
	return out + "}\n"
}
