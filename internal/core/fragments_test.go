package core

import (
	"sort"
	"strings"
	"testing"
)

func TestClassesCount(t *testing.T) {
	classes := Classes()
	if len(classes) != 11 {
		var labels []string
		for _, c := range classes {
			labels = append(labels, c.Label())
		}
		t.Fatalf("got %d classes, want 11 (paper §3.1):\n%s", len(classes), strings.Join(labels, "\n"))
	}
	// Member counts: {E}={I}={E,I} (3), {I,N}={E,I,N} (2),
	// {I,R}={E,I,R} (2), {I,N,R}={E,I,N,R} (2), seven singletons.
	sizes := map[int]int{}
	for _, c := range classes {
		sizes[len(c.Members)]++
	}
	if sizes[1] != 7 || sizes[2] != 3 || sizes[3] != 1 {
		t.Fatalf("class sizes = %v, want 7 singletons, 3 pairs, 1 triple", sizes)
	}
}

func TestEquivalences(t *testing.T) {
	// The equalities printed in Figure 1.
	pairs := [][2]string{
		{"E", "I"}, {"E", "EI"}, // {E} = {I} = {E,I}
		{"IN", "EIN"},
		{"IR", "EIR"},
		{"INR", "EINR"},
	}
	for _, p := range pairs {
		if !Equivalent(Frag(p[0]), Frag(p[1])) {
			t.Errorf("%s and %s must be equivalent", p[0], p[1])
		}
	}
	nonpairs := [][2]string{
		{"E", "N"}, {"N", "R"}, {"EN", "ENR"}, {"IN", "INR"},
		{"ER", "IR"}, {"EN", "IN"}, {"NR", "ENR"}, {"", "E"},
	}
	for _, p := range nonpairs {
		if Equivalent(Frag(p[0]), Frag(p[1])) {
			t.Errorf("%s and %s must not be equivalent", p[0], p[1])
		}
	}
}

// TestTheorem61Table checks the full subsumption relation over the 11
// class representatives against a hand-derived table.
func TestTheorem61Table(t *testing.T) {
	reps := []string{"", "E", "N", "R", "EN", "ER", "NR", "IN", "IR", "ENR", "INR"}
	// above[f] = the representatives (including f itself) that subsume f.
	above := map[string][]string{
		"":    {"", "E", "N", "R", "EN", "ER", "NR", "IN", "IR", "ENR", "INR"},
		"E":   {"E", "EN", "ER", "IN", "IR", "ENR", "INR"},
		"N":   {"N", "EN", "NR", "IN", "ENR", "INR"},
		"R":   {"R", "ER", "NR", "IR", "ENR", "INR"},
		"EN":  {"EN", "IN", "ENR", "INR"},
		"ER":  {"ER", "IR", "ENR", "INR"},
		"NR":  {"NR", "ENR", "INR"},
		"IN":  {"IN", "INR"},
		"IR":  {"IR", "INR"},
		"ENR": {"ENR", "INR"},
		"INR": {"INR"},
	}
	for _, f1 := range reps {
		want := map[string]bool{}
		for _, f2 := range above[f1] {
			want[f2] = true
		}
		for _, f2 := range reps {
			got := Subsumes(Frag(f1), Frag(f2))
			if got != want[f2] {
				t.Errorf("Subsumes({%s}, {%s}) = %v, want %v", f1, f2, got, want[f2])
			}
		}
	}
}

func TestSubsumptionIsPreorder(t *testing.T) {
	frags := CoreFragments()
	for _, f := range frags {
		if !Subsumes(f, f) {
			t.Errorf("not reflexive at %s", f)
		}
	}
	for _, f := range frags {
		for _, g := range frags {
			for _, h := range frags {
				if Subsumes(f, g) && Subsumes(g, h) && !Subsumes(f, h) {
					t.Fatalf("not transitive: %s <= %s <= %s", f, g, h)
				}
			}
		}
	}
}

func TestArityAndPackingIrrelevant(t *testing.T) {
	// A and P never influence subsumption: they are redundant
	// independently of the other features (Theorems 4.2 and 4.15).
	for _, f1 := range AllFragments() {
		for _, f2 := range AllFragments() {
			if Subsumes(f1, f2) != Subsumes(Core(f1), Core(f2)) {
				t.Fatalf("A/P changed subsumption: %s vs %s", f1, f2)
			}
		}
	}
}

// extreme returns the label of the class above every class (top) or
// below every class (!top), or "" when there is none.
func extreme(l *Lattice, top bool) string {
	for _, c := range l.Classes {
		all := true
		for _, d := range l.Classes {
			if top {
				all = all && Subsumes(d.Representative, c.Representative)
			} else {
				all = all && Subsumes(c.Representative, d.Representative)
			}
		}
		if all {
			return c.Label()
		}
	}
	return ""
}

func TestFigure1Lattice(t *testing.T) {
	l := BuildLattice()
	if len(l.Classes) != 11 {
		t.Fatalf("classes = %d", len(l.Classes))
	}
	if top := extreme(l, true); top != "{I, N, R} = {E, I, N, R}" {
		t.Fatalf("top = %q", top)
	}
	if bot := extreme(l, false); bot != "{}" {
		t.Fatalf("bottom = %q", bot)
	}
	// The 17 covering edges of Figure 1 (lower < upper), derived by
	// hand from Theorem 6.1.
	want := []string{
		"{} < {E} = {I} = {E, I}",
		"{} < {N}",
		"{} < {R}",
		"{E} = {I} = {E, I} < {E, N}",
		"{E} = {I} = {E, I} < {E, R}",
		"{N} < {E, N}",
		"{N} < {N, R}",
		"{R} < {E, R}",
		"{R} < {N, R}",
		"{E, N} < {E, N, R}",
		"{E, N} < {I, N} = {E, I, N}",
		"{E, R} < {E, N, R}",
		"{E, R} < {I, R} = {E, I, R}",
		"{N, R} < {E, N, R}",
		"{E, N, R} < {I, N, R} = {E, I, N, R}",
		"{I, N} = {E, I, N} < {I, N, R} = {E, I, N, R}",
		"{I, R} = {E, I, R} < {I, N, R} = {E, I, N, R}",
	}
	var got []string
	for up, downs := range l.Edges {
		for _, down := range downs {
			got = append(got, l.Classes[down].Label()+" < "+l.Classes[up].Label())
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Figure 1 edges differ:\ngot:\n%s\nwant:\n%s\n\nASCII:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), l.ASCII())
	}
	// Renderings exist.
	if !strings.Contains(l.DOT(), "digraph") {
		t.Fatal("DOT broken")
	}
	if !strings.Contains(l.ASCII(), "{I, N, R}") {
		t.Fatal("ASCII broken")
	}
}

func TestClassOf(t *testing.T) {
	c := ClassOf(Frag("API")) // {A,P,I} reduces to {I}, class {E}={I}={E,I}
	if c.Label() != "{E} = {I} = {E, I}" {
		t.Fatalf("ClassOf(API) = %s", c.Label())
	}
}
