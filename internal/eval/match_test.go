package eval

import (
	"slices"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

// mustPath parses a ground path literal, panicking on error.
func mustPath(src string) value.Path {
	p, err := parser.ParsePath(src)
	if err != nil {
		panic(err)
	}
	return p
}

// allMatches collects the distinct valuations that match e against p.
func allMatches(t *testing.T, src string, path string) []map[ast.Var]value.Path {
	t.Helper()
	rules, err := parser.ParseRules("X(" + src + ").")
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	e := rules[0].Head.Args[0]
	p := mustPath(path)
	env := NewEnv()
	var out []map[ast.Var]value.Path
	env.Match(e, p, func() {
		out = append(out, env.Snapshot())
	})
	return out
}

func TestMatchConst(t *testing.T) {
	if got := allMatches(t, "a.b", "a.b"); len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := allMatches(t, "a.b", "a.c"); len(got) != 0 {
		t.Fatalf("matches = %d", len(got))
	}
	if got := allMatches(t, "eps", "eps"); len(got) != 1 {
		t.Fatalf("eps matches = %d", len(got))
	}
	if got := allMatches(t, "eps", "a"); len(got) != 0 {
		t.Fatalf("eps vs a matches = %d", len(got))
	}
}

func TestMatchPathVarSplits(t *testing.T) {
	// $x.$y against a.b.c: 4 splits.
	got := allMatches(t, "$x.$y", "a.b.c")
	if len(got) != 4 {
		t.Fatalf("splits = %d, want 4", len(got))
	}
	// Repeated variable: $x.$x against a.b.a.b binds $x=a.b only.
	got = allMatches(t, "$x.$x", "a.b.a.b")
	if len(got) != 1 {
		t.Fatalf("repeated var matches = %d, want 1", len(got))
	}
	if !got[0][ast.PVar("x")].Equal(value.PathOf("a", "b")) {
		t.Fatalf("binding = %v", got[0])
	}
	// $x.$x against odd-length path: no match.
	if got := allMatches(t, "$x.$x", "a.b.a"); len(got) != 0 {
		t.Fatalf("odd repeated matches = %d", len(got))
	}
}

func TestMatchAtomVar(t *testing.T) {
	got := allMatches(t, "@u.$y", "a.b.c")
	if len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	if !got[0][ast.AVar("u")].Equal(value.PathOf("a")) {
		t.Fatalf("binding = %v", got[0])
	}
	// Atomic variables never match packed values.
	if got := allMatches(t, "@u", "<a>"); len(got) != 0 {
		t.Fatalf("@u matched packed value")
	}
	// But path variables do.
	if got := allMatches(t, "$u", "<a>"); len(got) != 1 {
		t.Fatalf("$u should match packed value")
	}
	// Repeated atomic variable.
	if got := allMatches(t, "@a.@a", "x.x"); len(got) != 1 {
		t.Fatalf("repeated @a on x.x = %d", len(got))
	}
	if got := allMatches(t, "@a.@a", "x.y"); len(got) != 0 {
		t.Fatalf("repeated @a on x.y = %d", len(got))
	}
}

func TestMatchPacking(t *testing.T) {
	got := allMatches(t, "$u.<$s>.$v", "a.<b.c>.d")
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
	m := got[0]
	if !m[ast.PVar("s")].Equal(value.PathOf("b", "c")) {
		t.Fatalf("$s = %v", m[ast.PVar("s")])
	}
	// Nested packing.
	got = allMatches(t, "<<$x>.$y>", "<<a>.b>")
	if len(got) != 1 {
		t.Fatalf("nested = %d", len(got))
	}
	if !got[0][ast.PVar("x")].Equal(value.PathOf("a")) {
		t.Fatalf("nested $x = %v", got[0])
	}
	// Packing structure mismatch.
	if got := allMatches(t, "<$x>", "a"); len(got) != 0 {
		t.Fatal("packed pattern matched atom")
	}
	if got := allMatches(t, "a", "<a>"); len(got) != 0 {
		t.Fatal("atom pattern matched packed value")
	}
	// <eps> matches exactly <eps>.
	if got := allMatches(t, "<eps>", "<eps>"); len(got) != 1 {
		t.Fatal("<eps> failed")
	}
}

func TestMatchBoundVariableChecks(t *testing.T) {
	e := ast.Cat(ast.P("x"), ast.C("m"), ast.P("x"))
	p := mustPath("a.b.m.a.b")
	env := NewEnv()
	count := 0
	env.Match(e, p, func() { count++ })
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	// Pre-bound variable restricts matches (bound by an enclosing Match).
	env2 := NewEnv()
	count = 0
	env2.Match(ast.P("x"), value.PathOf("a"), func() {
		env2.Match(ast.Cat(ast.P("x"), ast.P("y")), mustPath("a.b"), func() { count++ })
	})
	if count != 1 {
		t.Fatalf("prebound count = %d, want 1", count)
	}
	env3 := NewEnv()
	count = 0
	env3.Match(ast.P("x"), value.PathOf("z"), func() {
		env3.Match(ast.Cat(ast.P("x"), ast.P("y")), mustPath("a.b"), func() { count++ })
	})
	if count != 0 {
		t.Fatalf("conflicting prebound count = %d, want 0", count)
	}
}

func TestMatchDistinctValuationCounts(t *testing.T) {
	cases := []struct {
		pattern string
		path    string
		want    int
	}{
		{"$x.$y", "a.b", 3},
		{"$x.a.$y", "a.a.a", 3},
		{"$x.$y.$z", "a.b", 6},
		{"@u.@v", "a.b", 1},
		{"$x.b.$x", "a.b.a", 1},
		{"$x.b.$x", "b", 1},
		{"$x.<$y>.$z", "a.<b>.c.<d>", 2},
	}
	for _, c := range cases {
		got := allMatches(t, c.pattern, c.path)
		if len(got) != c.want {
			t.Errorf("%s vs %s: %d matches, want %d", c.pattern, c.path, len(got), c.want)
		}
	}
}

func TestEnvEval(t *testing.T) {
	env := NewEnv()
	e := ast.Cat(ast.P("x"), ast.A("u"), ast.Packed(ast.P("x")))
	want := value.Path{value.Intern("a"), value.Intern("b"), value.Intern("c"), value.Pack(value.PathOf("a", "b"))}
	evaluated := false
	env.MatchTuple([]ast.Expr{ast.P("x"), ast.A("u")}, []value.Path{value.PathOf("a", "b"), value.PathOf("c")}, func() {
		if got := env.Eval(e); !got.Equal(want) {
			t.Fatalf("Eval = %v, want %v", got, want)
		}
		evaluated = true
	})
	if !evaluated {
		t.Fatal("binding $x and @u did not match")
	}
}

// TestMatchSolvesLengths covers the shapes whose split the matcher
// solves for by length: a repeated path variable, a length that the
// repetitions do not divide, a packed item between two path variables
// and a path variable bound before the free one. Each case lists every
// valuation it matches, as sorted "var=path" bindings; pre, when set,
// is a pattern matched against prePath first, binding its variables.
func TestMatchSolvesLengths(t *testing.T) {
	cases := []struct {
		pre, prePath  string
		pattern, path string
		want          []string
	}{
		{"", "", "$x.a.$x", "b.c.a.b.c", []string{"$x=b.c"}},
		{"", "", "$x.a.$x", "a.a.a", []string{"$x=a"}},
		{"", "", "$x.a.$x", "a", []string{"$x=eps"}},
		{"", "", "$x.a.$x", "a.a", nil},
		{"", "", "$x.@u.a.$y.a.$x.@u.b.$y", "c.d.e.a.c.a.c.d.e.b.c", []string{"@u=e $x=c.d $y=c"}},
		{"", "", "$x.@u.a.$y.a.$x.@u.b.$y", "a.a.a.a.a.a.a.b.a", []string{"@u=a $x=a $y=a"}},
		{"", "", "$x.@u.a.$y.a.$x.@u.b.$y", "c.a.a.c.b.d", nil},
		{"", "", "$x.$x", "a.b.a", nil},
		{"", "", "$x.$x.$x", "a.a.a.a", nil},
		{"", "", "$x.$y.$x", "a.b.a", []string{"$x=a $y=b", "$x=eps $y=a.b.a"}},
		{"", "", "$x.<$s>.$y", "a.<b.c>.d", []string{"$s=b.c $x=a $y=d"}},
		{"", "", "$x.<$s>.$y", "<a>.<b>", []string{"$s=a $x=eps $y=<b>", "$s=b $x=<a> $y=eps"}},
		{"", "", "$x.<$x>.$y", "a.<a>.<b>", []string{"$x=a $y=<b>"}},
		{"$y", "b.c", "$x.$y", "a.b.c", []string{"$x=a $y=b.c"}},
		{"$y", "b", "$x.$y.$x", "a.b.a", []string{"$x=a $y=b"}},
		{"$y", "b", "$x.$y.$x", "a.c.a", nil},
		{"$y", "b.b", "$x.$y.$z", "a.b.b.c", []string{"$x=a $y=b.b $z=c"}},
	}
	for _, c := range cases {
		src := c.pattern
		if c.pre != "" {
			src = c.pre + ", " + src
		}
		rules, err := parser.ParseRules("X(" + src + ").")
		if err != nil {
			t.Fatalf("pattern %q: %v", src, err)
		}
		args := rules[0].Head.Args
		tuple := []value.Path{mustPath(c.path)}
		if c.pre != "" {
			tuple = []value.Path{mustPath(c.prePath), tuple[0]}
		}
		var got []string
		env := NewEnv()
		env.MatchTuple(args, tuple, func() {
			var binds []string
			for v, p := range env.Snapshot() {
				binds = append(binds, v.String()+"="+p.String())
			}
			slices.SortFunc(binds, func(a, b string) int { return strings.Compare(a[1:], b[1:]) })
			got = append(got, strings.Join(binds, " "))
		})
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s on %s (pre-bound %s=%s): matches %q, want %q", c.pattern, c.path, c.pre, c.prePath, got, c.want)
		}
	}
}
