// Package eval implements the semantics of Sequence Datalog programs
// (paper §2.3): valuations, satisfaction of literals, and the least
// model of a program on an instance, computed one dependency component
// at a time with semi-naive iteration. Termination is not guaranteed
// for arbitrary programs (Ex 2.3); configurable limits turn runaway
// evaluations into ErrNonTermination errors.
package eval

import (
	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// Env is a mutable valuation under construction: it maps variables to
// the paths they are bound to (atomic variables to single-atom paths).
// An Env also owns the reusable evaluation buffers for packed
// subexpressions, so it is private to one plan run (one worker).
type Env struct {
	m map[ast.Var]value.Path
	// packBufs[d] is the reusable buffer for evaluating the contents of
	// a packed term at nesting depth d. Pack hash-consing copies the
	// buffer only when a packed value is seen for the first time, so
	// repeated derivations of known packed values allocate nothing.
	packBufs []value.Path
}

// NewEnv creates an empty valuation.
func NewEnv() *Env { return &Env{m: map[ast.Var]value.Path{}} }

// Lookup returns the binding for v.
func (e *Env) Lookup(v ast.Var) (value.Path, bool) {
	p, ok := e.m[v]
	return p, ok
}

// Snapshot copies the current bindings (for callers that must retain a
// valuation beyond the match callback).
func (e *Env) Snapshot() map[ast.Var]value.Path {
	out := make(map[ast.Var]value.Path, len(e.m))
	for k, v := range e.m {
		out[k] = v
	}
	return out
}

// Eval evaluates an expression under the environment into a fresh
// path; all variables must be bound (guaranteed by safety + literal
// planning).
func (e *Env) Eval(x ast.Expr) value.Path {
	return e.evalInto(x, make(value.Path, 0, len(x)), 0)
}

// EvalAppend evaluates an expression under the environment, appending
// the result to buf and returning the extended slice. Callers own buf
// and may reuse it across calls (the evaluator's per-step and per-head
// scratch buffers); nothing in the engine retains the slice.
func (e *Env) EvalAppend(x ast.Expr, buf value.Path) value.Path {
	return e.evalInto(x, buf, 0)
}

func (e *Env) evalInto(x ast.Expr, out value.Path, depth int) value.Path {
	for _, t := range x {
		switch it := t.(type) {
		case ast.Const:
			out = append(out, it.A)
		case ast.VarT:
			p, ok := e.m[it.V]
			if !ok {
				panic("eval: unbound variable " + it.V.String() + " (unsafe rule slipped through planning)")
			}
			out = append(out, p...)
		case ast.Pack:
			// Evaluate the packed contents into the depth-d scratch
			// buffer; Pack copies it only on a hash-consing miss, so the
			// buffer is free for the next packed sibling immediately.
			for depth >= len(e.packBufs) {
				e.packBufs = append(e.packBufs, nil)
			}
			inner := e.evalInto(it.E, e.packBufs[depth][:0], depth+1)
			e.packBufs[depth] = inner
			out = append(out, value.Pack(inner))
		}
	}
	return out
}

// Match enumerates all ways to extend the environment so that the
// expression denotes exactly the path p, calling cont for each
// (bindings are undone between alternatives, so cont must not retain
// the Env without Snapshot).
func (e *Env) Match(x ast.Expr, p value.Path, cont func()) {
	e.matchSeq(x, p, cont)
}

// minRigid returns a lower bound on the number of path elements the
// items must consume (path variables may consume zero).
func (e *Env) minRigid(items []ast.Term) int {
	n := 0
	for _, t := range items {
		switch it := t.(type) {
		case ast.Const, ast.Pack:
			n++
		case ast.VarT:
			if it.V.Atomic {
				n++
			} else if b, ok := e.m[it.V]; ok {
				n += len(b)
			}
		}
	}
	return n
}

func (e *Env) matchSeq(items []ast.Term, p value.Path, cont func()) {
	if len(items) == 0 {
		if len(p) == 0 {
			cont()
		}
		return
	}
	if e.minRigid(items) > len(p) {
		return
	}
	rest := items[1:]
	switch it := items[0].(type) {
	case ast.Const:
		if len(p) > 0 {
			if a, ok := p[0].(value.Atom); ok && a == it.A {
				e.matchSeq(rest, p[1:], cont)
			}
		}
	case ast.Pack:
		if len(p) > 0 {
			if pk, ok := p[0].(value.Packed); ok {
				e.matchSeq(it.E, pk.Unpack(), func() {
					e.matchSeq(rest, p[1:], cont)
				})
			}
		}
	case ast.VarT:
		v := it.V
		if v.Atomic {
			if len(p) == 0 {
				return
			}
			a, ok := p[0].(value.Atom)
			if !ok {
				return
			}
			if b, bound := e.m[v]; bound {
				if len(b) == 1 && value.Equal(b[0], a) {
					e.matchSeq(rest, p[1:], cont)
				}
				return
			}
			// Bind the subslice, like the path-variable case below; the
			// capacity is clipped so that an append on a binding can never
			// write into tuple storage.
			e.m[v] = p[:1:1]
			e.matchSeq(rest, p[1:], cont)
			delete(e.m, v)
			return
		}
		if b, bound := e.m[v]; bound {
			if len(p) >= len(b) && p[:len(b)].Equal(b) {
				e.matchSeq(rest, p[len(b):], cont)
			}
			return
		}
		for k := 0; k <= len(p); k++ {
			e.m[v] = p[:k]
			e.matchSeq(rest, p[k:], cont)
		}
		delete(e.m, v)
	}
}

// MatchTuple enumerates extensions of the environment matching each
// argument pattern against the corresponding tuple component.
func (e *Env) MatchTuple(args []ast.Expr, tuple []value.Path, cont func()) {
	if len(args) == 0 {
		cont()
		return
	}
	e.Match(args[0], tuple[0], func() {
		e.MatchTuple(args[1:], tuple[1:], cont)
	})
}
