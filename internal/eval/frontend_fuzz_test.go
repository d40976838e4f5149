package eval

import (
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
)

// planBinds is the set of variables a compiled plan binds: those of its
// joined predicates and of the pattern side of its equation steps.
func planBinds(p *plan) map[ast.Var]bool {
	bound := map[ast.Var]bool{}
	for _, s := range p.steps {
		var binds []ast.Expr
		switch s.kind {
		case stepPred:
			binds = s.pred.Args
		case stepEq:
			binds = []ast.Expr{s.pattern}
		}
		for _, v := range ast.VarsOf(binds...) {
			bound[v] = true
		}
	}
	return bound
}

// FuzzFrontEnd feeds arbitrary text to the front end the way seqlog
// -program and seqlogd load do — ParseProgramForAnalysis, Compile (and
// with it the §2.2 check), Explain — and holds it to three things: nothing
// panics; a program Compile accepts prints to text that parses back to
// the same program; and for every rule of it, the variables §2.2 calls
// limited (ast.Rule.LimitedVars) are exactly the ones the compiled plan
// binds, so Check's notion of "limited" and the planner's are one. The
// seed corpus under testdata/fuzz is the paper's queries and the CLI's
// test programs.
func FuzzFrontEnd(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, _, err := parser.ParseProgramForAnalysis(src)
		if err != nil {
			return
		}
		prep, err := Compile(prog)
		if err != nil {
			return
		}
		prep.Explain()
		text := prog.String()
		again, _, err := parser.ParseProgramForAnalysis(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if again.String() != text {
			t.Fatalf("print → parse → print changed the program:\n%s\n--- became ---\n%s", text, again)
		}
		for _, c := range prep.comps {
			for _, pl := range c.plans {
				limited, bound := pl.rule.LimitedVars(), planBinds(pl)
				for _, v := range pl.rule.Vars() {
					if limited[v] != bound[v] {
						t.Fatalf("%s: %s limited=%v but bound by the plan=%v\n%s", pl.rule, v, limited[v], bound[v], pl.describe())
					}
				}
			}
		}
	})
}
