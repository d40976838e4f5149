package eval

import (
	"math/rand"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

// randomExpr builds a random path expression over a small variable and
// atom vocabulary; linear (no repeated variables) when linear is set.
func randomExpr(r *rand.Rand, depth int, linear bool, used map[ast.Var]bool) ast.Expr {
	n := r.Intn(4)
	e := ast.Expr{}
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			e = append(e, ast.Const{A: value.Intern([]string{"a", "b"}[r.Intn(2)])})
		case 1:
			v := ast.PVar([]string{"x", "y", "z"}[r.Intn(3)])
			if linear && used[v] {
				continue
			}
			used[v] = true
			e = append(e, ast.VarT{V: v})
		case 2:
			v := ast.AVar([]string{"u", "w"}[r.Intn(2)])
			if linear && used[v] {
				continue
			}
			used[v] = true
			e = append(e, ast.VarT{V: v})
		case 3:
			if depth > 0 {
				e = append(e, ast.Pack{E: randomExpr(r, depth-1, linear, used)})
			}
		}
	}
	return e
}

// randomValuation grounds the variables of e randomly.
func randomValuation(r *rand.Rand, vars []ast.Var) map[ast.Var]value.Path {
	nu := map[ast.Var]value.Path{}
	for _, v := range vars {
		if v.Atomic {
			nu[v] = value.Path{value.Intern([]string{"a", "b", "c"}[r.Intn(3)])}
			continue
		}
		n := r.Intn(3)
		p := make(value.Path, 0, n)
		for i := 0; i < n; i++ {
			if r.Intn(5) == 0 {
				p = append(p, value.Pack(value.PathOf("q")))
			} else {
				p = append(p, value.Intern([]string{"a", "b"}[r.Intn(2)]))
			}
		}
		nu[v] = p
	}
	return nu
}

func applyValuation(e ast.Expr, nu map[ast.Var]value.Path) value.Path {
	var out value.Path
	for _, t := range e {
		switch x := t.(type) {
		case ast.Const:
			out = append(out, x.A)
		case ast.VarT:
			out = append(out, nu[x.V]...)
		case ast.Pack:
			out = append(out, value.Pack(applyValuation(x.E, nu)))
		}
	}
	return out
}

// TestMatchSoundness: every enumerated match evaluates back to the
// matched path.
func TestMatchSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 3000; trial++ {
		e := randomExpr(r, 2, false, map[ast.Var]bool{})
		nu := randomValuation(r, e.Vars())
		p := applyValuation(e, nu)
		env := NewEnv()
		env.Match(e, p, func() {
			got := env.Eval(e)
			if !got.Equal(p) {
				t.Fatalf("unsound match: %s on %s gives %s (env %v)", e, p, got, env.Snapshot())
			}
		})
	}
}

// TestMatchCompleteness: the valuation that produced the path is among
// the enumerated matches.
func TestMatchCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 3000; trial++ {
		e := randomExpr(r, 2, false, map[ast.Var]bool{})
		vars := e.Vars()
		nu := randomValuation(r, vars)
		p := applyValuation(e, nu)
		found := false
		env := NewEnv()
		env.Match(e, p, func() {
			if found {
				return
			}
			ok := true
			for _, v := range vars {
				b, bound := env.Lookup(v)
				if !bound || !b.Equal(nu[v]) {
					ok = false
					break
				}
			}
			if ok {
				found = true
			}
		})
		if !found {
			t.Fatalf("incomplete match: %s with %v on %s", e, nu, p)
		}
	}
}

// TestMatchNoDuplicates: distinct callbacks yield distinct valuations.
func TestMatchNoDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 1500; trial++ {
		e := randomExpr(r, 1, false, map[ast.Var]bool{})
		vars := e.Vars()
		nu := randomValuation(r, vars)
		p := applyValuation(e, nu)
		seen := map[string]bool{}
		env := NewEnv()
		env.Match(e, p, func() {
			key := ""
			for _, v := range vars {
				b, _ := env.Lookup(v)
				key += v.String() + "=" + b.String() + ";"
			}
			if seen[key] {
				t.Fatalf("duplicate valuation %s for %s on %s", key, e, p)
			}
			seen[key] = true
		})
	}
}

// FuzzMatch holds the matcher to the three properties above under a
// pre-bound valuation, the way derivesGoal and every index-probed step
// match: a tuple of one to three expressions drawn by randomExpr (the
// small vocabulary repeats variables across columns), or the columns of
// pattern when it is set, the paths a random valuation gives them, and
// the variables the mask picks bound to that valuation beforehand.
// Every enumerated valuation must re-evaluate to the tuple, the
// generating valuation must be among them, and none may repeat. The
// seeds are the property tests' own, then the shapes whose split the
// matcher solves for by length (TestMatchSolvesLengths), each free and
// with its last variable bound.
func FuzzMatch(f *testing.F) {
	for _, seed := range []int64{101, 202, 303} {
		for cols := range uint8(3) {
			for _, mask := range []uint8{0, 0x55, 0xff} {
				f.Add(seed, cols, mask, "")
			}
		}
	}
	for _, shape := range []string{"$x.a.$x", "$x.@u.a.$y.a.$x.@u.b.$y", "$x.$x", "$x.<$s>.$y", "$x.$y.$x", "$y, $x.$y.$z"} {
		rules, _ := parser.ParseRules("X(" + shape + ").")
		last := len(ast.VarsOf(rules[0].Head.Args...)) - 1
		for _, mask := range []uint8{0, 1 << last} {
			f.Add(int64(404), uint8(0), mask, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, cols, mask uint8, pattern string) {
		r := rand.New(rand.NewSource(seed))
		exprs := make([]ast.Expr, 1+int(cols)%3)
		for i := range exprs {
			exprs[i] = randomExpr(r, 2, false, map[ast.Var]bool{})
		}
		if pattern != "" {
			// Five free path variables already split a short path a
			// thousand ways; more only slow the fuzzer down.
			rules, err := parser.ParseRules("X(" + pattern + ").")
			if err != nil || len(rules) != 1 || len(pattern) > 64 || len(ast.VarsOf(rules[0].Head.Args...)) > 5 {
				t.Skip()
			}
			exprs = rules[0].Head.Args
		}
		vars := ast.VarsOf(exprs...)
		nu := randomValuation(r, vars)
		tuple := make([]value.Path, len(exprs))
		for i, e := range exprs {
			tuple[i] = applyValuation(e, nu)
		}
		var pre []ast.Expr
		var prePaths []value.Path
		for i, v := range vars {
			if mask>>(i%8)&1 == 1 {
				pre = append(pre, ast.Expr{ast.VarT{V: v}})
				prePaths = append(prePaths, nu[v])
			}
		}
		env := NewEnv()
		found, seen := false, map[string]bool{}
		env.MatchTuple(pre, prePaths, func() {
			env.MatchTuple(exprs, tuple, func() {
				key, generating := "", true
				for _, v := range vars {
					b, bound := env.Lookup(v)
					if !bound {
						t.Fatalf("%v on %v: %s unbound in a match", exprs, tuple, v)
					}
					key += v.String() + "=" + b.String() + ";"
					generating = generating && b.Equal(nu[v])
				}
				for i, e := range exprs {
					if got := env.Eval(e); !got.Equal(tuple[i]) {
						t.Fatalf("unsound match: %s on %s gives %s (env %v)", e, tuple[i], got, env.Snapshot())
					}
				}
				if seen[key] {
					t.Fatalf("duplicate valuation %s for %v on %v", key, exprs, tuple)
				}
				seen[key], found = true, found || generating
			})
		})
		if !found {
			t.Fatalf("incomplete match: %v with %v (pre-bound %v) on %v", exprs, nu, pre, tuple)
		}
	})
}
