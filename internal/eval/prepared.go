package eval

import (
	"fmt"
	"slices"
	"strings"

	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/instance"
)

// component is one strongly connected component of the program's
// dependency graph (ast.Deps), the unit the fixpoint and DRed
// maintenance evaluate: its rules' join plans plus what maintenance
// needs to decide whether the component can be skipped. Components run
// in dependency order, so every relation a component reads outside its
// own heads is settled before it runs; a stratifiable program has no
// negative edge inside a component, so every negated relation is such
// a settled one.
type component struct {
	plans []*plan
	// rederive[i] is plans[i]'s rule compiled with its head variables
	// pre-bound: the goal plan of derivation checks, which match the head
	// against a candidate fact before the body runs (driver.derivesGoal);
	// compileGoal picks its first step.
	rederive []*plan
	// heads is the set of relation names defined by this component, and
	// names lists them sorted.
	heads map[string]bool
	names []string
	// reads is the set of relation names occurring in body predicates
	// of this component, positive or negated (including its own heads
	// for recursive rules).
	reads map[string]bool
	// recursive reports that some rule of the component reads one of
	// its own heads; without such a read the pruner's bounded check is
	// already its whole proof (maintenance.prove).
	recursive bool
}

// String names the component by its sorted head relations, as its
// errors do.
func (c *component) String() string { return strings.Join(c.names, ", ") }

// Prepared is a compiled program: validated, split into its dependency
// components in evaluation order, with every rule's join plan and the
// relation arities computed once. A Prepared is immutable and safe for
// concurrent use; it is the unit of reuse for repeated evaluation
// (Eval/Query/Holds methods) and the program half of an Engine.
type Prepared struct {
	prog  ast.Program
	comps []component
	// arities maps every relation name of the program to its arity.
	arities map[string]int
	// idb marks the relation names defined by some rule head.
	idb map[string]bool
	// diags holds the non-error diagnostics (warnings and infos) the
	// static analyzer reported at compile time.
	diags []analyze.Diagnostic
}

// Compile analyzes and plans a program once, returning a reusable
// *Prepared. The static analyzer (internal/analyze) checks rule
// safety, arity consistency, and stratified negation; a program with
// error-severity diagnostics is rejected with an *analyze.DiagError
// carrying the structured list. Warnings and infos do not block
// compilation and are surfaced through Diagnostics. The program is
// deep copied, so later mutation of prog cannot corrupt the compiled
// form.
func Compile(prog ast.Program) (*Prepared, error) {
	diags, arities := analyze.CheckWithArities(prog, analyze.Options{})
	if analyze.HasErrors(diags) {
		return nil, &analyze.DiagError{Diags: diags}
	}
	prog = prog.Clone()
	p := &Prepared{
		prog:    prog,
		arities: arities,
		idb:     prog.IDB(),
		diags:   diags,
	}
	deps := prog.Deps()
	for _, r := range prog.Rules() {
		// Component ids are dense and come in dependency order.
		id := deps.SCC[r.Head.Name]
		for len(p.comps) <= id {
			p.comps = append(p.comps, component{heads: map[string]bool{}, reads: map[string]bool{}})
		}
		c := &p.comps[id]
		// One numbering of the rule's variables serves all its plans.
		vars := r.Vars()
		pl, err := compilePlan(r, vars, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Head.Name, err)
		}
		// Delta-hoisted variants: one plan per body atom, either sign (run
		// when the delta sits on that atom's relation), compiled once here
		// so maintenance never plans at runtime.
		if err := pl.compileVariants(); err != nil {
			return nil, fmt.Errorf("%s (delta variants): %w", r.Head.Name, err)
		}
		inComp := func(name string) bool {
			sid, ok := deps.SCC[name] // EDB names have no component
			return ok && sid == id
		}
		rp, err := compileGoal(r, vars, inComp)
		if err != nil {
			return nil, fmt.Errorf("%s (rederive plan): %w", r.Head.Name, err)
		}
		c.plans = append(c.plans, pl)
		c.rederive = append(c.rederive, rp)
		if !c.heads[r.Head.Name] {
			c.heads[r.Head.Name] = true
			c.names = append(c.names, r.Head.Name)
			slices.Sort(c.names)
		}
		for _, pr := range r.Preds() {
			c.reads[pr.Name] = true
			c.recursive = c.recursive || inComp(pr.Name)
		}
	}
	return p, nil
}

// compileGoal compiles r with its head variables pre-bound: the goal
// plan of derivation checks. When the greedy first step reads a
// relation of r's own component (inComp) and another positive atom
// ties with it (probe-able, not fully ground, as many fully bound
// columns), the first such atom outside the component is pinned first
// instead: a check then starts at a settled relation, not the one it
// is deriving (reachability's R, not T). A fully ground first step, one
// membership probe, stays first.
func compileGoal(r ast.Rule, vars []ast.Var, inComp func(string) bool) (*plan, error) {
	head := ast.VarsOf(r.Head.Args...)
	rp, err := compilePlan(r, vars, head, -1)
	if err != nil || len(rp.predSteps) < 2 || !inComp(rp.steps[0].pred.Name) {
		return rp, err
	}
	most := len(rp.steps[0].BoundCols)
	if most == len(rp.steps[0].pred.Args) {
		return rp, nil
	}
	for k := range rp.predSteps {
		alt, err := compilePlan(r, vars, head, k)
		if err != nil {
			return nil, err
		}
		s := &alt.steps[0]
		if n := len(s.BoundCols); !inComp(s.pred.Name) && s.Class() != ast.AccessScan && n == most && n < len(s.pred.Args) {
			return alt, nil
		}
	}
	return rp, nil
}

// Program returns (a copy of) the compiled program.
func (p *Prepared) Program() ast.Program { return p.prog.Clone() }

// Diagnostics returns the non-error findings (warnings and infos) the
// static analyzer reported when the program was compiled: possible
// nontermination through sequence growth, dead rules, joins that
// degenerate to scans under incremental maintenance, and the program's
// fragment. The slice is a copy; the Prepared stays immutable.
func (p *Prepared) Diagnostics() []analyze.Diagnostic {
	out := make([]analyze.Diagnostic, len(p.diags))
	copy(out, p.diags)
	return out
}

// Arity returns the arity of a relation named by the program, and
// whether the program names it at all.
func (p *Prepared) Arity(name string) (int, bool) {
	a, ok := p.arities[name]
	return a, ok
}

// Explain returns, in evaluation order (component by component, rule
// order within one), a one-line description of each compiled join
// plan: the chosen predicate order and, per predicate, the access path
// (exact index, ground-prefix index, ground-suffix index, or scan).
// After each rule's base plan come its delta-hoisted variants,
// indented, in body order: one "Δname:" line per positive body atom
// and one "Δ!name:" line per negated one — the plan maintenance runs
// when the delta sits on that relation, with the delta atom first (a
// negated atom made positive) as the [delta] step, then its goal plan
// (see compileGoal) as a "goal:" line.
func (p *Prepared) Explain() []string {
	var out []string
	for _, c := range p.comps {
		for i, pl := range c.plans {
			out = append(out, pl.describe())
			for _, v := range pl.variants {
				sign := ""
				if v.neg {
					sign = "!"
				}
				out = append(out, fmt.Sprintf("  Δ%s%s: %s", sign, v.steps[0].pred.Name, v.describe()))
			}
			out = append(out, "  goal: "+c.rederive[i].describe())
		}
	}
	return out
}

// Eval computes P(I) for the compiled program: the least instance
// extending edb satisfying every rule, one dependency component at a
// time — a refinement of the paper's stratum-by-stratum evaluation
// (§2.3). The input is shared copy-on-write (instance.Snapshot), so the
// EDB relations are never copied: the result aliases their (frozen)
// storage and only derived relations allocate. The input instance is
// not modified, but its relations become frozen — writes routed
// through the instance (Instance.Add, Ensure, Merge) transparently
// clone, while a *Relation handle obtained before Eval panics if
// written directly afterwards; re-fetch it via Instance.Ensure.
func (p *Prepared) Eval(edb *instance.Instance, limits Limits) (*instance.Instance, error) {
	inst := edb.Snapshot()
	derived := 0
	if err := p.fixpoint(inst, limits.orDefault(), &derived); err != nil {
		return nil, err
	}
	return inst, nil
}

// checkArity is the door check between the program and one relation of
// the facts it is about to meet — an EDB (what = "instance holds") or a
// write batch ("asserting", "retracting"): a relation the program names
// must hold tuples of the program's arity. Past the door the plan steps
// take arities for granted; a clash let through would read as "no
// match" under negation and panic in Ensure under a head.
func (p *Prepared) checkArity(name string, r *instance.Relation, what string) error {
	if a, ok := p.arities[name]; ok && a != r.Arity {
		return fmt.Errorf("eval: %s arity-%d tuples of relation %q used with arity %d by the program", what, r.Arity, name, a)
	}
	return nil
}

// output is the one rule for reading an output relation out of a
// fixpoint of the program: the relation itself, or an empty one of the
// program's arity when the program names it but nothing was derived. A
// name unknown to both the program and the instance is an error: it
// almost always indicates a misspelled relation name.
func (p *Prepared) output(inst *instance.Instance, output string) (*instance.Relation, error) {
	if r := inst.Relation(output); r != nil {
		return r, nil
	}
	if a, ok := p.arities[output]; ok {
		return instance.NewRelation(a), nil
	}
	return nil, fmt.Errorf("eval: unknown output relation %q (not defined by the program and absent from the instance)", output)
}

// Query evaluates the compiled program and returns the contents of one
// output relation (possibly empty, with arity taken from the program);
// see output for an unknown one.
func (p *Prepared) Query(edb *instance.Instance, output string, limits Limits) (*instance.Relation, error) {
	out, err := p.Eval(edb, limits)
	if err != nil {
		return nil, err
	}
	return p.output(out, output)
}

// Holds evaluates the compiled program and reports whether the nullary
// output relation holds (boolean queries, §5.1.1).
func (p *Prepared) Holds(edb *instance.Instance, output string, limits Limits) (bool, error) {
	r, err := p.Query(edb, output, limits)
	if err != nil {
		return false, err
	}
	return r.Len() > 0, nil
}
