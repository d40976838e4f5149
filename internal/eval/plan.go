package eval

import (
	"fmt"
	"strings"

	"seqlog/internal/ast"
)

// step is one planned body literal.
type step struct {
	kind stepKind
	pred ast.Pred // for predicate steps
	// For equation steps: ground is evaluated under the environment and
	// pattern is matched against the result, binding its variables.
	ground  ast.Expr
	pattern ast.Expr
	// For negated equations both sides are ground at execution time.
	neg bool

	// Join acceleration (stepPred only): the access paths open to the
	// step under the variables bound when it runs; see ast.Access.
	// unboundCols/unboundArgs are the complement of BoundCols, matched
	// per candidate (the bound ones are already verified by the index
	// lookup).
	ast.Access
	unboundCols []int
	unboundArgs []ast.Expr
}

type stepKind int

const (
	stepPred    stepKind = iota // positive predicate: join/match
	stepEq                      // positive equation: evaluate + match
	stepNegPred                 // negated predicate: ground membership test
	stepNegEq                   // negated equation: ground comparison
)

// plan is a compiled rule: steps execute left to right; positive
// predicates first (greedily reordered so that steps with more bound
// variables run later and can use index probes), then positive
// equations in limited-closure order, then negative literals (whose
// variables are bound by safety).
type plan struct {
	rule  ast.Rule
	steps []step
	// predSteps lists the offsets of the stepPred steps within p.steps,
	// in execution order. Used by semi-naive deltas.
	predSteps []int

	// hoisted marks a delta variant: the first step is the delta
	// predicate (iterated over a change window, never the full
	// relation), and the remaining body was ordered and annotated with
	// that atom's variables bound.
	hoisted bool
	// neg marks the delta variant of a negated body atom: the rule with
	// that literal made positive and hoisted, so its delta step iterates
	// the changes of the negated relation.
	neg bool
	// variants[k] is the rule recompiled with its k-th body predicate
	// (in written body order, either sign) hoisted to the first join
	// position — the plan maintenance runs when the delta sits on that
	// atom's relation. Populated by compileVariants on base plans only.
	variants []*plan
}

// compilePlan orders the body literals of a safe rule per §2.2's
// limited variable closure; it fails on unsafe rules. preBound lists
// variables bound before the first step runs, so that positions
// mentioning only them count as ground and get index or prefix probes
// instead of scans (the rederive plans pass the head variables, see
// component.rederive). hoist, when >= 0, forces the hoist-th
// positive body predicate (in written order) to the first join
// position — the delta-variant shape: that atom iterates a change
// window, the rest is ordered greedily with its variables bound.
func compilePlan(r ast.Rule, preBound []ast.Var, hoist int) (*plan, error) {
	p := &plan{rule: r, hoisted: hoist >= 0}
	bound := map[ast.Var]bool{}
	for _, v := range preBound {
		bound[v] = true
	}
	// 1. Positive predicates in ast.JoinOrder's greedy order (a hoisted
	// plan pins one atom first), each annotated with the access paths the
	// variables bound before it open.
	parts := r.Parts()
	preds := parts.Preds
	if hoist >= len(preds) {
		return nil, fmt.Errorf("eval: hoist index %d out of range for rule %s", hoist, r)
	}
	ast.JoinOrder(preds, bound, hoist, func(i int) {
		st := step{kind: stepPred, pred: preds[i], Access: preds[i].Access(bound)}
		for k, a := range st.pred.Args {
			if !a.BoundIn(bound) {
				st.unboundCols = append(st.unboundCols, k)
				st.unboundArgs = append(st.unboundArgs, a)
			}
		}
		p.predSteps = append(p.predSteps, len(p.steps))
		p.steps = append(p.steps, st)
	})
	// 2. Positive equations in §2.2's binding order.
	stuck := ast.BindOrder(parts.Eqs, bound, func(ground, pattern ast.Expr) bool {
		p.steps = append(p.steps, step{kind: stepEq, ground: ground, pattern: pattern})
		return true
	})
	if len(stuck) > 0 {
		return nil, fmt.Errorf("eval: rule is unsafe (equations cannot be ordered): %s", r)
	}
	// 3. Negative literals; all their variables must now be bound.
	for _, l := range r.Body {
		if !l.Neg {
			continue
		}
		switch x := l.Atom.(type) {
		case ast.Pred:
			for _, a := range x.Args {
				if !a.BoundIn(bound) {
					return nil, fmt.Errorf("eval: unsafe negated predicate %s in rule %s", x, r)
				}
			}
			p.steps = append(p.steps, step{kind: stepNegPred, pred: x, neg: true})
		case ast.Eq:
			if !x.L.BoundIn(bound) || !x.R.BoundIn(bound) {
				return nil, fmt.Errorf("eval: unsafe nonequality %s != %s in rule %s", x.L, x.R, r)
			}
			p.steps = append(p.steps, step{kind: stepNegEq, ground: x.L, pattern: x.R, neg: true})
		}
	}
	// 4. Head variables must be bound.
	for _, a := range r.Head.Args {
		if !a.BoundIn(bound) {
			return nil, fmt.Errorf("eval: unsafe head %s in rule %s", r.Head, r)
		}
	}
	return p, nil
}

// compileVariants populates p.variants: one hoisted plan per body
// predicate, in body order — the plan maintenance runs when the delta
// sits on that atom's relation. A negated atom's variant is the rule
// with the literal made positive and hoisted: it joins the changed
// tuples of the negated relation against the rest of the body, so it
// visits exactly the valuations whose negated atom evaluates into the
// change. Compiled once at Compile time on base plans; rederive plans
// never need them. Variant compilation cannot fail on a rule the base
// compile accepted — hoisting only changes join order, and a negated
// atom's variables are bound by the positive body anyway — but errors
// are propagated defensively.
func (p *plan) compileVariants() error {
	pos := 0 // positive body predicates before literal i
	for i, l := range p.rule.Body {
		pr, ok := l.Atom.(ast.Pred)
		if !ok {
			continue
		}
		r := p.rule
		if l.Neg {
			r = r.Splice(i, ast.Pos(pr))
		}
		v, err := compilePlan(r, nil, pos)
		if err != nil {
			return err
		}
		v.neg = l.Neg
		p.variants = append(p.variants, v)
		if !l.Neg {
			pos++
		}
	}
	return nil
}

// accessPaths is the one table of the access classes a positive
// predicate step can probe through: how explain labels a step of the
// class and which PlanStats counter an execution of one bumps. (What
// the runner does per class is run.candidates.)
var accessPaths = [...]struct {
	label   func(s *step) string
	counter func(st *PlanStats) *int
}{
	ast.AccessScan: {
		func(*step) string { return " [scan]" },
		func(st *PlanStats) *int { return &st.ScanSteps },
	},
	ast.AccessExact: {
		func(s *step) string {
			if len(s.BoundCols) == len(s.pred.Args) {
				return fmt.Sprintf(" [index%v ground]", s.BoundCols)
			}
			return fmt.Sprintf(" [index%v]", s.BoundCols)
		},
		func(st *PlanStats) *int { return &st.IndexProbeSteps },
	},
	ast.AccessPrefix: {
		func(s *step) string { return fmt.Sprintf(" [prefix col=%d len=%d]", s.PrefixCol, s.PrefixLen) },
		func(st *PlanStats) *int { return &st.PrefixProbeSteps },
	},
	ast.AccessSuffix: {
		func(s *step) string { return fmt.Sprintf(" [suffix col=%d len=%d]", s.SuffixCol, s.SuffixLen) },
		func(st *PlanStats) *int { return &st.SuffixProbeSteps },
	},
}

// describe renders the compiled join plan of the rule: the chosen
// execution order with, per predicate step, the access path the
// indexed evaluator uses. On a hoisted (delta-variant) plan the first
// predicate step prints [delta]: it iterates a change window, not the
// relation.
func (p *plan) describe() string {
	var b strings.Builder
	b.WriteString(p.rule.Head.String())
	b.WriteString(" :- ")
	for i, s := range p.steps {
		if i > 0 {
			b.WriteString(", ")
		}
		switch s.kind {
		case stepPred:
			b.WriteString(s.pred.String())
			if p.hoisted && i == 0 {
				b.WriteString(" [delta]")
			} else {
				b.WriteString(accessPaths[s.Class()].label(&s))
			}
		case stepEq:
			fmt.Fprintf(&b, "%s = %s [match]", s.ground, s.pattern)
		case stepNegPred:
			fmt.Fprintf(&b, "!%s [probe]", s.pred)
		case stepNegEq:
			fmt.Fprintf(&b, "%s != %s [compare]", s.ground, s.pattern)
		}
	}
	return b.String()
}
