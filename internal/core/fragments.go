// Package core implements the paper's primary contribution: the
// complete classification of Sequence Datalog fragments by expressive
// power (Sections 3 and 6). It provides
//
//   - Subsumes: the Theorem 6.1 decision procedure for F1 ≤ F2;
//   - the equivalence classes and the Figure 1 Hasse diagram.
//
// It depends on internal/ast alone, so the analyzer can name a
// program's class and internal/rewrite can plan against the lattice
// (rewrite.ToFragment, the Figure 3 planner).
//
// Fragments are subsets of Φ = {A, E, I, N, P, R}; queries are the flat
// unary queries of §3.1 (monadic flat instances in, a flat relation of
// arity at most one out).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"seqlog/internal/ast"
)

// Fragment is a set of features, reusing the ast feature letters.
type Fragment = ast.FeatureSet

// Features re-exported for convenience.
const (
	A = ast.FeatArity
	E = ast.FeatEquations
	I = ast.FeatIntermediates
	N = ast.FeatNegation
	P = ast.FeatPacking
	R = ast.FeatRecursion
)

// Frag builds a fragment from feature letters, e.g. Frag("EIN").
func Frag(letters string) Fragment {
	f, ok := ast.ParseFeatureSet(letters)
	if !ok {
		panic("core: bad fragment " + letters)
	}
	return f
}

// Violated names the first of the five conditions of Theorem 6.1 that
// F1 ≤ F2 breaks, or returns "" when F2 subsumes F1:
//
//  1. N ∈ F1 ⇒ N ∈ F2
//  2. R ∈ F1 ⇒ R ∈ F2
//  3. E ∈ F1 ⇒ (E ∈ F2 ∨ I ∈ F2)
//  4. (I ∈ F1 ∧ R ∉ F1 ∧ N ∉ F1) ⇒ (I ∈ F2 ∨ E ∈ F2)
//  5. (I ∈ F1 ∧ (R ∈ F1 ∨ N ∈ F1)) ⇒ I ∈ F2
//
// A and P never matter: they are redundant regardless of the other
// features (Theorems 4.2 and 4.15).
func Violated(f1, f2 Fragment) string {
	switch {
	case f1.Has(N) && !f2.Has(N):
		return "condition 1: negation is primitive"
	case f1.Has(R) && !f2.Has(R):
		return "condition 2: recursion is primitive (Theorem 5.3)"
	case f1.Has(E) && !(f2.Has(E) || f2.Has(I)):
		return "condition 3: E is primitive in the absence of I (Theorem 5.7)"
	case f1.Has(I) && !f1.Has(R) && !f1.Has(N) && !(f2.Has(I) || f2.Has(E)):
		return "condition 4: I without N,R still needs I or E"
	case f1.Has(I) && (f1.Has(R) || f1.Has(N)) && !f2.Has(I):
		return "condition 5: I is primitive in the presence of N or R (Theorems 5.5, 5.6)"
	}
	return ""
}

// Subsumes decides F1 ≤ F2 — every query computable in F1 is
// computable in F2 — by Theorem 6.1 (see Violated).
func Subsumes(f1, f2 Fragment) bool { return Violated(f1, f2) == "" }

// Equivalent reports mutual subsumption.
func Equivalent(f1, f2 Fragment) bool { return Subsumes(f1, f2) && Subsumes(f2, f1) }

// Core drops the redundant features A and P: F and Core(F) are always
// equivalent.
func Core(f Fragment) Fragment {
	return f.Without(A).Without(P)
}

// AllFragments enumerates all 64 fragments over Φ.
func AllFragments() []Fragment {
	out := make([]Fragment, 0, 64)
	for bits := 0; bits < 64; bits++ {
		var f Fragment
		for i, feat := range []ast.Feature{A, E, I, N, P, R} {
			if bits&(1<<i) != 0 {
				f = f.With(feat)
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoreFragments enumerates the 16 fragments over {E, I, N, R}.
func CoreFragments() []Fragment {
	seen := map[Fragment]bool{}
	var out []Fragment
	for _, f := range AllFragments() {
		c := Core(f)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Class is an equivalence class of fragments under mutual subsumption.
type Class struct {
	// Members are the core fragments in the class, sorted.
	Members []Fragment
	// Representative is the smallest member.
	Representative Fragment

	// label is rendered once, by Classes: every compiled program's
	// fragment report reads it.
	label string
}

// Label renders the class like the paper's Figure 1 nodes, e.g.
// "{I, N} = {E, I, N}".
func (c Class) Label() string { return c.label }

// Classes partitions the 16 core fragments into equivalence classes
// (the paper finds exactly 11).
func Classes() []Class {
	frags := CoreFragments()
	assigned := map[Fragment]bool{}
	var out []Class
	for _, f := range frags {
		if assigned[f] {
			continue
		}
		var cls Class
		var labels []string
		for _, g := range frags {
			if Equivalent(f, g) {
				cls.Members = append(cls.Members, g)
				labels = append(labels, g.String())
				assigned[g] = true
			}
		}
		cls.Representative = cls.Members[0]
		cls.label = strings.Join(labels, " = ")
		out = append(out, cls)
	}
	return out
}

// classOf maps each of the 64 fragments to its class, partitioned once:
// every compiled program's fragment report reads it.
var classOf = sync.OnceValue(func() (table [64]Class) {
	classes := Classes()
	for _, f := range AllFragments() {
		i := slices.IndexFunc(classes, func(c Class) bool { return slices.Contains(c.Members, Core(f)) })
		table[f] = classes[i]
	}
	return table
})

// ClassOf returns the equivalence class of a fragment.
func ClassOf(f Fragment) Class { return classOf()[f] }

// Lattice is the Hasse diagram of Figure 1: the covering relation over
// the equivalence classes.
type Lattice struct {
	Classes []Class
	// Edges[i] lists the indices of classes covered by class i (i.e.
	// an ascending edge from Edges[i][k] up to i).
	Edges map[int][]int
}

// BuildLattice computes the Figure 1 diagram from the decision
// procedure.
func BuildLattice() *Lattice {
	classes := Classes()
	below := func(i, j int) bool { // strictly below
		return Subsumes(classes[i].Representative, classes[j].Representative) &&
			!Subsumes(classes[j].Representative, classes[i].Representative)
	}
	edges := map[int][]int{}
	for i := range classes {
		for j := range classes {
			if !below(j, i) {
				continue
			}
			// Covering: no k strictly between.
			cover := true
			for k := range classes {
				if k != i && k != j && below(j, k) && below(k, i) {
					cover = false
					break
				}
			}
			if cover {
				edges[i] = append(edges[i], j)
			}
		}
	}
	return &Lattice{Classes: classes, Edges: edges}
}

// DOT renders the diagram in Graphviz format.
func (l *Lattice) DOT() string {
	var b strings.Builder
	b.WriteString("digraph figure1 {\n  rankdir=BT;\n  node [shape=plaintext, fontname=\"monospace\"];\n")
	for i, c := range l.Classes {
		fmt.Fprintf(&b, "  c%d [label=%q];\n", i, c.Label())
	}
	for up := range l.Classes { // not range l.Edges: map order would differ run to run
		for _, down := range l.Edges[up] {
			fmt.Fprintf(&b, "  c%d -> c%d;\n", down, up)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders the diagram by levels, top first, as in Figure 1.
func (l *Lattice) ASCII() string {
	// Level = longest ascending chain below the class.
	depth := make([]int, len(l.Classes))
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if depth[i] != 0 {
			return depth[i]
		}
		d := 1
		for _, j := range l.Edges[i] {
			if dd := depthOf(j) + 1; dd > d {
				d = dd
			}
		}
		depth[i] = d
		return d
	}
	maxD := 0
	for i := range l.Classes {
		if d := depthOf(i); d > maxD {
			maxD = d
		}
	}
	var b strings.Builder
	for d := maxD; d >= 1; d-- {
		var labels []string
		for i, c := range l.Classes {
			if depth[i] == d {
				labels = append(labels, c.Label())
			}
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "level %2d:  %s\n", maxD-d+1, strings.Join(labels, "    "))
	}
	b.WriteString("\nascending covers (lower < upper):\n")
	type edge struct{ lo, hi string }
	var es []edge
	for up, downs := range l.Edges {
		for _, down := range downs {
			es = append(es, edge{l.Classes[down].Label(), l.Classes[up].Label()})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].lo != es[j].lo {
			return es[i].lo < es[j].lo
		}
		return es[i].hi < es[j].hi
	})
	for _, e := range es {
		fmt.Fprintf(&b, "  %s < %s\n", e.lo, e.hi)
	}
	return b.String()
}
