package eval

import (
	"slices"

	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// The ast.Expr entry points only the tests use; each numbers its
// expression through Env.number and runs the runner's own matcher and
// evaluator. (MatchTuple, which other packages' tests call, is in
// match.go.)

// Lookup returns the binding for v.
func (e *Env) Lookup(v ast.Var) (value.Path, bool) {
	if i := slices.Index(e.names, v); i >= 0 && e.bound[i] {
		return e.vals[i], true
	}
	return nil, false
}

// Snapshot copies the current bindings (for callers that must retain a
// valuation beyond the match callback).
func (e *Env) Snapshot() map[ast.Var]value.Path {
	out := map[ast.Var]value.Path{}
	for i, v := range e.names {
		if e.bound[i] {
			out[v] = e.vals[i]
		}
	}
	return out
}

// Eval evaluates an expression under the environment into a fresh
// path; all variables must be bound.
func (e *Env) Eval(x ast.Expr) value.Path {
	return e.evalInto(e.number(x)[0], make(value.Path, 0, len(x)), 0)
}

// Match enumerates all ways to extend the environment so that the
// expression denotes exactly the path p, calling cont for each
// (bindings are undone between alternatives, so cont must not retain
// the Env without Snapshot).
func (e *Env) Match(x ast.Expr, p value.Path, cont func()) {
	e.matchSeq(e.number(x)[0], p, cont)
}
