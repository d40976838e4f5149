// Package eval implements the semantics of Sequence Datalog programs
// (paper §2.3): valuations, satisfaction of literals, and the least
// model of a program on an instance, computed one dependency component
// at a time with semi-naive iteration. Termination is not guaranteed
// for arbitrary programs (Ex 2.3); configurable limits turn runaway
// evaluations into ErrNonTermination errors.
package eval

import (
	"slices"

	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// expr is an ast.Expr compiled against a numbering of its rule's
// variables: every variable occurrence names its slot, the index of the
// variable in the numbering, so the matcher binds and looks up by
// index instead of hashing the variable.
type expr []term

type term struct {
	kind termKind
	slot int        // termAtomVar, termPathVar
	atom value.Atom // termConst
	sub  expr       // termPack: the packed contents
}

type termKind uint8

const (
	termConst termKind = iota
	termAtomVar
	termPathVar
	termPack
)

// compile numbers x's variables by their index in vars, which must hold
// them all. Compilation is term for term, so a slice of x compiles to
// the same slice of the result.
func compile(x ast.Expr, vars []ast.Var) expr {
	out := make(expr, len(x))
	for i, t := range x {
		switch it := t.(type) {
		case ast.Const:
			out[i] = term{kind: termConst, atom: it.A}
		case ast.VarT:
			out[i] = term{kind: termPathVar, slot: slices.Index(vars, it.V)}
			if it.V.Atomic {
				out[i].kind = termAtomVar
			}
		case ast.Pack:
			out[i] = term{kind: termPack, sub: compile(it.E, vars)}
		}
	}
	return out
}

// compileAll compiles each expression of xs; see compile.
func compileAll(xs []ast.Expr, vars []ast.Var) []expr {
	out := make([]expr, len(xs))
	for i, x := range xs {
		out[i] = compile(x, vars)
	}
	return out
}

// Env is a mutable valuation under construction: slot i holds the path
// bound to the i-th variable of the numbering in force (atomic
// variables to single-atom paths). A run frame points it at its plan's
// numbering; the ast.Expr entry points number variables as they first
// meet them. An Env also owns the reusable evaluation buffers for
// packed subexpressions, so it is private to one plan run.
type Env struct {
	names []ast.Var // slot → variable: the numbering in force
	vals  []value.Path
	bound []bool
	// packBufs[d] is the reusable buffer for evaluating the contents of
	// a packed term at nesting depth d. Pack hash-consing copies the
	// buffer only when a packed value is seen for the first time, so
	// repeated derivations of known packed values allocate nothing.
	packBufs []value.Path
}

// NewEnv creates an empty valuation.
func NewEnv() *Env { return &Env{} }

// use points the valuation at the numbering vars, one slot per
// variable, keeping whatever is bound in its slots already.
func (e *Env) use(vars []ast.Var) {
	e.names = vars
	e.vals, e.bound = sized(e.vals, len(vars)), sized(e.bound, len(vars))
}

// number compiles xs for the ast.Expr entry points: variables the Env
// has not numbered yet get the next free slots. The numbering in force
// may be a plan's, so it is extended by copy, never in place.
func (e *Env) number(xs ...ast.Expr) []expr {
	vars := slices.Clip(e.names)
	for _, v := range ast.VarsOf(xs...) {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	e.use(vars)
	return compileAll(xs, vars)
}

// evalInto evaluates x under the environment, appending the result to
// out and returning the extended slice. Callers own out and may reuse
// it across calls (the runner's per-step and per-head scratch);
// nothing in the engine retains the slice.
func (e *Env) evalInto(x expr, out value.Path, depth int) value.Path {
	for i := range x {
		switch t := &x[i]; t.kind {
		case termConst:
			out = append(out, t.atom)
		case termAtomVar, termPathVar:
			if !e.bound[t.slot] {
				panic("eval: unbound variable " + e.names[t.slot].String() + " (unsafe rule slipped through planning)")
			}
			out = append(out, e.vals[t.slot]...)
		case termPack:
			// Evaluate the packed contents into the depth-d scratch
			// buffer; Pack copies it only on a hash-consing miss, so the
			// buffer is free for the next packed sibling immediately.
			for depth >= len(e.packBufs) {
				e.packBufs = append(e.packBufs, nil)
			}
			inner := e.evalInto(t.sub, e.packBufs[depth][:0], depth+1)
			e.packBufs[depth] = inner
			out = append(out, value.Pack(inner))
		}
	}
	return out
}

// minRigid returns a lower bound on the number of path elements the
// items must consume (path variables may consume zero).
func (e *Env) minRigid(items expr) int {
	n := 0
	for i := range items {
		if t := &items[i]; t.kind != termPathVar {
			n++
		} else if e.bound[t.slot] {
			n += len(e.vals[t.slot])
		}
	}
	return n
}

func (e *Env) matchSeq(items expr, p value.Path, cont func()) {
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
	switch it := &items[0]; it.kind {
	case termConst:
		if len(p) > 0 {
			if a, ok := p[0].(value.Atom); ok && a == it.atom {
				e.matchSeq(rest, p[1:], cont)
			}
		}
	case termPack:
		if len(p) > 0 {
			if pk, ok := p[0].(value.Packed); ok {
				e.matchSeq(it.sub, pk.Unpack(), func() {
					e.matchSeq(rest, p[1:], cont)
				})
			}
		}
	case termAtomVar:
		if len(p) == 0 {
			return
		}
		a, ok := p[0].(value.Atom)
		if !ok {
			return
		}
		s := it.slot
		if e.bound[s] {
			if b := e.vals[s]; len(b) == 1 && value.Equal(b[0], a) {
				e.matchSeq(rest, p[1:], cont)
			}
			return
		}
		// Bind the subslice, like the path-variable case below; the
		// capacity is clipped so that an append on a binding can never
		// write into tuple storage.
		e.vals[s], e.bound[s] = p[:1:1], true
		e.matchSeq(rest, p[1:], cont)
		e.bound[s] = false
	case termPathVar:
		s := it.slot
		if e.bound[s] {
			if b := e.vals[s]; len(p) >= len(b) && p[:len(b)].Equal(b) {
				e.matchSeq(rest, p[len(b):], cont)
			}
			return
		}
		e.bound[s] = true
		for k := 0; k <= len(p); k++ {
			e.vals[s] = p[:k]
			e.matchSeq(rest, p[k:], cont)
		}
		e.bound[s] = false
	}
}

// MatchTuple enumerates extensions of the environment matching each
// argument pattern against the corresponding tuple component.
func (e *Env) MatchTuple(args []ast.Expr, tuple []value.Path, cont func()) {
	e.matchTuple(e.number(args...), tuple, cont)
}

func (e *Env) matchTuple(args []expr, tuple []value.Path, cont func()) {
	if len(args) == 0 {
		cont()
		return
	}
	e.matchSeq(args[0], tuple[0], func() {
		e.matchTuple(args[1:], tuple[1:], cont)
	})
}
