package eval

import (
	"fmt"
	"strings"

	"seqlog/internal/ast"
)

// step is one planned body literal. Its ast forms are what describe
// and origin print (and pred names the relation the step reads); the
// runner executes the compiled forms, numbered by the rule's slot
// table (plan.vars).
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
	// step's probe form under the variables bound when it runs (see
	// ast.Access and ast.Defs.Probe); probe holds that form's arguments,
	// compiled into keys, from which run.candidates evaluates the index
	// keys. unboundCols/unboundArgs are the columns whose own arguments
	// are not ground, matched per candidate (the others are already
	// verified by the index lookup); a column probed through a
	// definition is among them, so matching binds its variable.
	ast.Access
	probe       []ast.Expr
	unboundCols []int

	// The compiled forms: args of pred.Args, keys of probe, unboundArgs
	// of the unbound columns' arguments, lhs and rhs of ground and
	// pattern.
	args, keys, unboundArgs []expr
	lhs, rhs                expr
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
	rule ast.Rule
	// vars numbers the rule's variables: variable vars[i] is slot i of
	// the valuation every plan of the rule runs in (base, delta variants
	// and rederive plan alike). head is the compiled head.
	vars  []ast.Var
	head  []expr
	steps []step
	// predSteps lists the offsets of the stepPred steps within p.steps,
	// in execution order. Used by semi-naive deltas.
	predSteps []int

	// hoisted marks a delta variant (and nothing else: compileVariants
	// sets it, and a goal plan pinned by compileGoal reads its whole
	// first relation): the first step is the delta predicate (iterated
	// over a change window, never the full relation), and the remaining
	// body was ordered and annotated with that atom's variables bound.
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
// limited variable closure; it fails on unsafe rules. vars numbers the
// rule's variables (it holds them all), and every expression the runner
// evaluates or matches is compiled against it. preBound lists
// variables bound before the first step runs, so that positions
// mentioning only them count as ground and get index or prefix probes
// instead of scans (the rederive plans pass the head variables, see
// component.rederive). hoist, when >= 0, pins the hoist-th positive
// body predicate (in written order) to the first join position; the
// rest is ordered greedily with its variables bound.
func compilePlan(r ast.Rule, vars, preBound []ast.Var, hoist int) (*plan, error) {
	p := &plan{rule: r, vars: vars, head: compileAll(r.Head.Args, vars)}
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
	ast.JoinOrder(preds, ast.Definitions(parts.Eqs), bound, hoist, func(i int, probe ast.Pred) {
		st := step{kind: stepPred, pred: preds[i], probe: probe.Args, Access: probe.Access(bound),
			args: compileAll(preds[i].Args, vars), keys: compileAll(probe.Args, vars)}
		for k, a := range st.pred.Args {
			if !a.BoundIn(bound) {
				st.unboundCols = append(st.unboundCols, k)
				st.unboundArgs = append(st.unboundArgs, st.args[k])
			}
		}
		p.predSteps = append(p.predSteps, len(p.steps))
		p.steps = append(p.steps, st)
	})
	// 2. Positive equations in §2.2's binding order.
	stuck := ast.BindOrder(parts.Eqs, bound, func(ground, pattern ast.Expr) bool {
		p.steps = append(p.steps, step{kind: stepEq, ground: ground, pattern: pattern,
			lhs: compile(ground, vars), rhs: compile(pattern, vars)})
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
			p.steps = append(p.steps, step{kind: stepNegPred, pred: x, neg: true, args: compileAll(x.Args, vars)})
		case ast.Eq:
			if !x.L.BoundIn(bound) || !x.R.BoundIn(bound) {
				return nil, fmt.Errorf("eval: unsafe nonequality %s != %s in rule %s", x.L, x.R, r)
			}
			p.steps = append(p.steps, step{kind: stepNegEq, ground: x.L, pattern: x.R, neg: true,
				lhs: compile(x.L, vars), rhs: compile(x.R, vars)})
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
// predicate, in body order (ast.Rule.DeltaVariants) — the plan
// maintenance runs when the delta sits on that atom's relation. A
// negated atom's variant joins the changed tuples of the negated
// relation against the rest of the body, so it visits exactly the
// valuations whose negated atom evaluates into the change. Compiled
// once at Compile time on base plans; rederive plans never need them.
// Variant compilation cannot fail on a rule the base compile accepted
// — hoisting only changes join order, and a negated atom's variables
// are bound by the positive body anyway — but errors are propagated
// defensively.
func (p *plan) compileVariants() (err error) {
	p.rule.DeltaVariants(func(i, hoist int, r ast.Rule) bool {
		var v *plan
		if v, err = compilePlan(r, p.vars, nil, hoist); err != nil {
			return false
		}
		v.hoisted, v.neg = true, p.rule.Body[i].Neg
		p.variants = append(p.variants, v)
		return true
	})
	return err
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
		func(*step) string { return "scan" },
		func(st *PlanStats) *int { return &st.ScanSteps },
	},
	ast.AccessExact: {
		func(s *step) string {
			if len(s.BoundCols) == len(s.pred.Args) {
				return fmt.Sprintf("index%v ground", s.BoundCols)
			}
			return fmt.Sprintf("index%v", s.BoundCols)
		},
		func(st *PlanStats) *int { return &st.IndexProbeSteps },
	},
	ast.AccessPrefix: {
		func(s *step) string { return fmt.Sprintf("prefix col=%d len=%d", s.PrefixCol, s.PrefixLen) },
		func(st *PlanStats) *int { return &st.PrefixProbeSteps },
	},
	ast.AccessSuffix: {
		func(s *step) string { return fmt.Sprintf("suffix col=%d len=%d", s.SuffixCol, s.SuffixLen) },
		func(st *PlanStats) *int { return &st.SuffixProbeSteps },
	},
}

// origin names where a step's probe comes from when it is not the
// step's own arguments: " of E" for every probed column that probes
// through the definition E.
func (s *step) origin() string {
	cols := s.BoundCols
	switch s.Class() {
	case ast.AccessPrefix:
		cols = []int{s.PrefixCol}
	case ast.AccessSuffix:
		cols = []int{s.SuffixCol}
	}
	var of []string
	for _, c := range cols {
		if !s.probe[c].Equal(s.pred.Args[c]) {
			of = append(of, s.probe[c].String())
		}
	}
	if len(of) == 0 {
		return ""
	}
	return " of " + strings.Join(of, ", ")
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
				fmt.Fprintf(&b, " [%s%s]", accessPaths[s.Class()].label(&s), s.origin())
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
