package ast

import (
	"maps"
	"slices"
	"strings"
)

// Feature is one of the six language features of Section 3.
type Feature uint8

// The features, in the paper's lettering.
const (
	FeatArity         Feature = 1 << iota // A: some predicate of arity > 1
	FeatEquations                         // E: some equation
	FeatIntermediates                     // I: at least two IDB relation names
	FeatNegation                          // N: some negated atom
	FeatPacking                           // P: some <e> in a rule
	FeatRecursion                         // R: a cycle in the dependency graph
)

// FeatureSet is a fragment: a subset of the six features.
type FeatureSet uint8

// AllFeatures is the full fragment Φ = {A, E, I, N, P, R}.
const AllFeatures FeatureSet = FeatureSet(FeatArity | FeatEquations | FeatIntermediates | FeatNegation | FeatPacking | FeatRecursion)

// Has reports whether the fragment contains the feature.
func (f FeatureSet) Has(x Feature) bool { return f&FeatureSet(x) != 0 }

// With returns the fragment extended with the feature.
func (f FeatureSet) With(x Feature) FeatureSet { return f | FeatureSet(x) }

// Without returns the fragment with the feature removed.
func (f FeatureSet) Without(x Feature) FeatureSet { return f &^ FeatureSet(x) }

// Union returns the union of two fragments.
func (f FeatureSet) Union(g FeatureSet) FeatureSet { return f | g }

// SubsetOf reports whether f ⊆ g as sets of features.
func (f FeatureSet) SubsetOf(g FeatureSet) bool { return f&^g == 0 }

// String renders the fragment in the paper's notation, e.g. "{E, I, N}".
func (f FeatureSet) String() string {
	var parts []string
	for _, fl := range []struct {
		f Feature
		s string
	}{
		{FeatArity, "A"}, {FeatEquations, "E"}, {FeatIntermediates, "I"},
		{FeatNegation, "N"}, {FeatPacking, "P"}, {FeatRecursion, "R"},
	} {
		if f.Has(fl.f) {
			parts = append(parts, fl.s)
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ParseFeatureSet parses fragments like "{E,I,N}", "EIN", or "" (empty).
func ParseFeatureSet(s string) (FeatureSet, bool) {
	var f FeatureSet
	for _, r := range s {
		switch r {
		case 'A', 'a':
			f = f.With(FeatArity)
		case 'E', 'e':
			f = f.With(FeatEquations)
		case 'I', 'i':
			f = f.With(FeatIntermediates)
		case 'N', 'n':
			f = f.With(FeatNegation)
		case 'P', 'p':
			f = f.With(FeatPacking)
		case 'R', 'r':
			f = f.With(FeatRecursion)
		case '{', '}', ',', ' ':
		default:
			return 0, false
		}
	}
	return f, true
}

// Features detects the fragment a program belongs to, per the
// definitions in Section 3: A (arity > 1), E (equations), I (≥ 2 IDB
// names), N (negated atoms), P (packing), R (dependency-graph cycle).
func (p Program) Features() FeatureSet { return p.FeaturesWith(p.Deps()) }

// FeaturesWith is Features for a caller that already holds the
// program's dependency graph.
func (p Program) FeaturesWith(d Deps) FeatureSet {
	var f FeatureSet
	set := func(x Feature, on bool) {
		if on {
			f = f.With(x)
		}
	}
	for _, r := range p.Rules() {
		set(FeatArity, len(r.Head.Args) > 1)
		for _, pr := range r.Preds() {
			set(FeatArity, len(pr.Args) > 1)
		}
		for e := range r.Exprs() {
			set(FeatPacking, e.HasPacking())
		}
		for _, l := range r.Body {
			set(FeatNegation, l.Neg)
		}
		for range r.Eqs() {
			set(FeatEquations, true)
		}
	}
	set(FeatIntermediates, len(d.Edges) >= 2)
	set(FeatRecursion, len(d.RecursiveRelations()) > 0)
	return f
}

// Deps is a program's dependency graph with its strongly connected
// components, built once (Program.Deps) and shared by every question
// about recursion: the R feature, the recursive relations, cycles
// through negation.
type Deps struct {
	// Edges has one key per IDB relation name; there is an edge from R1
	// to R2 if R2 is an IDB name occurring in the body of a rule with R1
	// in its head (paper §3, fn 2). Targets are sorted.
	Edges map[string][]string
	// SCC maps each IDB relation name to a component id. Two names share
	// an id iff each is reachable from the other. Ids are assigned
	// deterministically, a component after every component it depends
	// on, and carry no meaning beyond that order.
	SCC map[string]int
}

// Deps builds the program's dependency graph and its components.
func (p Program) Deps() Deps {
	idb := p.IDB()
	edges := map[string]map[string]bool{}
	for _, r := range p.Rules() {
		if edges[r.Head.Name] == nil {
			edges[r.Head.Name] = map[string]bool{}
		}
		for _, pr := range r.Preds() {
			if idb[pr.Name] {
				edges[r.Head.Name][pr.Name] = true
			}
		}
	}
	d := Deps{Edges: make(map[string][]string, len(edges))}
	for from, tos := range edges {
		d.Edges[from] = sortedKeys(tos)
	}
	d.SCC = sccIDs(d.Edges)
	return d
}

// RecursiveRelations returns the IDB relation names on some dependency
// cycle, self-loops included — those with an edge into their own
// component — sorted. A stratum's rules are "recursive" when their
// heads are among these.
func (d Deps) RecursiveRelations() []string {
	var out []string
	for n, tos := range d.Edges {
		if slices.ContainsFunc(tos, func(m string) bool { return d.SCC[m] == d.SCC[n] }) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// RecursiveRelations returns the IDB relation names on some dependency
// cycle, sorted.
func (p Program) RecursiveRelations() []string { return p.Deps().RecursiveRelations() }

// HasRecursion reports whether the dependency graph has a cycle
// (including self-loops); this is the R feature.
func (p Program) HasRecursion() bool { return len(p.RecursiveRelations()) > 0 }

// sccIDs is Tarjan's algorithm, recursive (program dependency graphs
// are small), visiting nodes and edges in sorted order.
func sccIDs(g map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	comp := 0
	ids := map[string]int{}
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				ids[w] = comp
				if w == v {
					break
				}
			}
			comp++
		}
	}
	for _, n := range slices.Sorted(maps.Keys(g)) {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return ids
}
