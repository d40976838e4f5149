package ast_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
)

var update = flag.Bool("update", false, "rewrite testdata/helpers.golden from the current helpers' output")

type depthTerm struct {
	depth int
	term  string
}

// bruteTerms is the visiting order Expr.Terms promises, by plain
// recursion: each term, a packed term before its contents.
func bruteTerms(e ast.Expr, depth int) []depthTerm {
	var out []depthTerm
	for _, t := range e {
		out = append(out, depthTerm{depth, t.String()})
		if p, ok := t.(ast.Pack); ok {
			out = append(out, bruteTerms(p.E, depth+1)...)
		}
	}
	return out
}

func mustRule(t *testing.T, src string) ast.Rule {
	t.Helper()
	rules, err := parser.ParseRules(src)
	if err != nil || len(rules) != 1 {
		t.Fatalf("ParseRules(%q) = %v, %v", src, rules, err)
	}
	return rules[0]
}

func TestTermsOrderAndDepth(t *testing.T) {
	r := mustRule(t, `S(a.$x.<@y.<b>.$z.<eps>>.c) :- R($x).`)
	e := r.Head.Args[0]
	var got []depthTerm
	for d, term := range e.Terms() {
		got = append(got, depthTerm{d, term.String()})
	}
	want := []depthTerm{
		{0, "a"}, {0, "$x"}, {0, "<@y.<b>.$z.<eps>>"},
		{1, "@y"}, {1, "<b>"}, {2, "b"}, {1, "$z"}, {1, "<eps>"},
		{0, "c"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms order:\n got %v\nwant %v", got, want)
	}
	if brute := bruteTerms(e, 0); !reflect.DeepEqual(got, brute) {
		t.Fatalf("Terms disagrees with plain recursion:\n got %v\nwant %v", got, brute)
	}
	// Early exit: the walk stops inside packing when the loop breaks.
	n := 0
	for range e.Terms() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("break did not stop the walk: %d terms visited", n)
	}
}

func TestRuleExprsAndPredsOrder(t *testing.T) {
	r := mustRule(t, "H($a, <$b>) :- P($c, $d), $e = $f.<$g>, !Q($h), $i != $j, N.")
	var exprs []string
	for e := range r.Exprs() {
		exprs = append(exprs, e.String())
	}
	wantExprs := []string{"$a", "<$b>", "$c", "$d", "$e", "$f.<$g>", "$h", "$i", "$j"}
	if !reflect.DeepEqual(exprs, wantExprs) {
		t.Fatalf("Rule.Exprs order = %v, want %v", exprs, wantExprs)
	}
	var preds []string
	for l, p := range r.Preds() {
		if l.Atom.String() != p.String() {
			t.Fatalf("Preds yielded literal %s with predicate %s", l, p)
		}
		preds = append(preds, l.String())
	}
	wantPreds := []string{"P($c, $d)", "!Q($h)", "N"}
	if !reflect.DeepEqual(preds, wantPreds) {
		t.Fatalf("Rule.Preds = %v, want %v (body predicates only, in order, with sign)", preds, wantPreds)
	}
	vars := r.Vars()
	wantVars := "$a $b $c $d $e $f $g $h $i $j"
	if got := fmt.Sprint(vars); got != "["+wantVars+"]" {
		t.Fatalf("Rule.Vars = %v, want %s", vars, wantVars)
	}
	// Position is where the atom itself starts: after the "!" of a
	// negated predicate, at the left side of a nonequality.
	src := r.String()
	for i, l := range r.Body {
		text := l.Atom.String()
		if _, isEq := l.Atom.(ast.Eq); isEq {
			text = l.String()
		}
		if got, want := l.Atom.Position().Col, strings.Index(src, text)+1; got != want {
			t.Errorf("body atom %d (%s): Position().Col = %d, want %d", i, l, got, want)
		}
	}
}

// TestBodyPartsEqsAndSplice: Parts is the body by sign and kind in body
// order, Eqs yields the equations with their body index, and Splice
// drops or replaces one literal in a fresh body.
func TestBodyPartsEqsAndSplice(t *testing.T) {
	r := mustRule(t, "H($a) :- $i != $j, P($a, $d), !Q($a), $e = $a.<$g>, N, !M, $d != $e, $x = $d.")
	parts := r.Parts()
	got := fmt.Sprint(parts.Preds, parts.Eqs, parts.NegPreds, parts.NegEqs)
	if want := "[P($a, $d) N] [$e = $a.<$g> $x = $d] [Q($a) M] [$i = $j $d = $e]"; got != want {
		t.Fatalf("Parts = %s, want %s", got, want)
	}
	var eqs []string
	for i, eq := range r.Eqs() {
		if r.Body[i].Atom.String() != eq.String() {
			t.Fatalf("Eqs yielded index %d with %s, the body has %s there", i, eq, r.Body[i])
		}
		eqs = append(eqs, fmt.Sprint(i))
	}
	if want := "0 3 6 7"; strings.Join(eqs, " ") != want {
		t.Fatalf("Eqs indices = %v, want %s", eqs, want)
	}
	before := r.String()
	if got, want := r.Splice(3).String(), "H($a) :- $i != $j, P($a, $d), !Q($a), N, !M, $d != $e, $x = $d."; got != want {
		t.Errorf("Splice(3) = %s, want %s", got, want)
	}
	two := r.Splice(0, ast.Pos(ast.Pred{Name: "A"}), ast.Neg(ast.Pred{Name: "B"}))
	if !strings.HasPrefix(two.String(), "H($a) :- A, !B, P($a, $d), ") || len(two.Body) != len(r.Body)+1 {
		t.Errorf("Splice(0, A, !B) = %s", two)
	}
	two.Body[2] = ast.Pos(ast.Pred{Name: "Clobbered"})
	if r.String() != before {
		t.Fatalf("mutating a spliced body changed the original: %s", r)
	}
}

// TestBindOrder: equations come out in §2.2's closure order — the first
// one with a bound side each time, left side preferred, starting over
// after every binding — try sees the variables bound before each, a
// vetoed orientation falls through to the other, and what never gets a
// bound side is returned in the given order.
func TestBindOrder(t *testing.T) {
	r := mustRule(t, "H :- R($a), $c = $b.x, $b = $a.y, $a.$a = $b, $u = $v, $w.z = $v.")
	bound := map[ast.Var]bool{ast.PVar("a"): true}
	var steps []string
	stuck := ast.BindOrder(r.Parts().Eqs, bound, func(ground, pattern ast.Expr) bool {
		if !ground.BoundIn(bound) {
			t.Errorf("offered %s as ground with %v bound", ground, bound)
		}
		steps = append(steps, fmt.Sprintf("%s => %s", ground, pattern))
		return true
	})
	if got, want := strings.Join(steps, "; "), "$a.y => $b; $b.x => $c; $a.$a => $b"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(stuck), "[$u = $v $w.z = $v]"; got != want {
		t.Errorf("stuck = %s, want %s", got, want)
	}
	for _, v := range []string{"a", "b", "c"} {
		if !bound[ast.PVar(v)] {
			t.Errorf("$%s not bound afterwards", v)
		}
	}
	// A veto on packed ground sides: <$a> = $p cannot run left to right,
	// $q = <$a> runs right to left only when $q is bound — it is not.
	packed := mustRule(t, "H :- R($a), <$a> = $p, $r = $a, $q = <$a>.")
	bound = map[ast.Var]bool{ast.PVar("a"): true}
	stuck = ast.BindOrder(packed.Parts().Eqs, bound, func(ground, _ ast.Expr) bool { return !ground.HasPacking() })
	if got, want := fmt.Sprint(stuck), "[<$a> = $p $q = <$a>]"; got != want || !bound[ast.PVar("r")] || bound[ast.PVar("p")] {
		t.Errorf("with packed sides vetoed: stuck = %s (want %s), bound = %v", got, want, bound)
	}
	// nil accepts everything, and that is LimitedVars.
	if limited := packed.LimitedVars(); len(limited) != 4 {
		t.Errorf("LimitedVars = %v, want $a $p $q $r", limited)
	}
}

// TestExpandRules: rules are replaced stratum by stratum by what f
// returns, a stratum left empty is dropped (a program left empty keeps
// one), and the first error stops the walk.
func TestExpandRules(t *testing.T) {
	prog, err := parser.ParseProgram("A(a).\nB(b).\n---\nC(c).\n---\nD(d).\n")
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) {
		switch r.Head.Name {
		case "A":
			return []ast.Rule{r, r}, nil
		case "C":
			return nil, nil
		}
		return []ast.Rule{r}, nil
	})
	if got, want := out.String(), "A(a).\nA(a).\nB(b).\n---\nD(d).\n"; err != nil || got != want {
		t.Errorf("ExpandRules = %q, %v; want %q", got, err, want)
	}
	none, err := prog.ExpandRules(func(ast.Rule) ([]ast.Rule, error) { return nil, nil })
	if err != nil || len(none.Strata) != 1 || len(none.Strata[0]) != 0 {
		t.Errorf("dropping every rule: %v, %v; want one empty stratum", none.Strata, err)
	}
	calls := 0
	_, err = prog.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) {
		calls++
		return nil, fmt.Errorf("refused %s", r.Head.Name)
	})
	if err == nil || err.Error() != "refused A" || calls != 1 {
		t.Errorf("error = %v after %d calls, want refused A after 1", err, calls)
	}
}

// TestMapIdentity: rebuilding with the identity is deep-equal to the
// original and owns its slices — replacing an element of the copy's
// body or argument lists leaves the original alone. Positions survive.
func TestMapIdentity(t *testing.T) {
	identity := func(e ast.Expr) ast.Expr { return e }
	for _, q := range queries.All() {
		prog := q.Program
		if got := prog.MapRules(func(r ast.Rule) ast.Rule { return r }); !reflect.DeepEqual(got, prog) {
			t.Errorf("%s: MapRules(identity) differs", q.Name)
		}
		for _, r := range prog.Rules() {
			before := r.String()
			for name, cp := range map[string]ast.Rule{
				"MapExprs": r.MapExprs(identity),
				"MapPreds": r.MapPreds(func(p ast.Pred) ast.Pred { return p }),
				"Clone":    r.Clone(),
			} {
				if !reflect.DeepEqual(cp, r) {
					t.Errorf("%s: %s(identity) of %s differs: %s", q.Name, name, r, cp)
				}
				if cp.Head.Pos != r.Head.Pos {
					t.Errorf("%s: %s dropped the head position", q.Name, name)
				}
				for i := range cp.Body {
					cp.Body[i] = ast.Pos(ast.Pred{Name: "Clobbered"})
				}
				if name != "MapPreds" { // MapPreds shares unreplaced argument lists by contract
					for i := range cp.Head.Args {
						cp.Head.Args[i] = ast.C("clobbered")
					}
				}
				if r.String() != before {
					t.Fatalf("%s: mutating the %s copy changed the original: %s", q.Name, name, r)
				}
			}
		}
	}
}

// TestHelpersUnchanged pins, for every paper query, what the exported
// helpers built on the traversal family return — Features, Arities,
// Consts, IDB/EDB names, the recursive relations and each rule's Vars
// and limited variables — against a golden recorded before the helpers
// were rewritten over it.
func TestHelpersUnchanged(t *testing.T) {
	var b strings.Builder
	for _, q := range queries.All() {
		p := q.Program
		fmt.Fprintf(&b, "== %s\nfeatures %s\n", q.Name, p.Features())
		arities, err := p.Arities()
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		names := make([]string, 0, len(arities))
		for n, a := range arities {
			names = append(names, fmt.Sprintf("%s/%d", n, a))
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "arities %s\n", strings.Join(names, " "))
		var consts []string
		for _, c := range p.Consts() {
			consts = append(consts, c.Text())
		}
		fmt.Fprintf(&b, "consts %q\n", consts)
		fmt.Fprintf(&b, "idb %v edb %v all %v recursive %v\n", p.IDBNames(), p.EDBNames(), p.RelationNames(), p.RecursiveRelations())
		for _, r := range p.Rules() {
			var limited []ast.Var
			lim := r.LimitedVars()
			for v := range lim {
				limited = append(limited, v)
			}
			slices.SortFunc(limited, func(a, b ast.Var) int { return strings.Compare(a.String(), b.String()) })
			safe := true
			for _, v := range r.Vars() {
				safe = safe && lim[v]
			}
			fmt.Fprintf(&b, "vars %v limited %v safe %v ground-head %v\n", r.Vars(), limited, safe, allGround(r.Head.Args))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "helpers.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("helper output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func allGround(es []ast.Expr) bool {
	for _, e := range es {
		if !e.IsGround() {
			return false
		}
	}
	return true
}
