package ast

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"
)

// AutoStratify arranges a flat list of rules into a minimal sequence of
// strata with stratified negation and checks the result (Check with
// derived strata). The failure is the first violation as a *PosError:
// an arity clash, an unlimited variable, or — when no stratification
// exists — the negated atom on the offending cycle.
func AutoStratify(rules []Rule) (Program, error) {
	prog, ok := StratifyLevels(rules)
	if _, vs := prog.Check(false); len(vs) > 0 {
		return Program{}, vs[0].Err()
	}
	if !ok {
		return Program{}, fmt.Errorf("no stratification exists: recursion through negation")
	}
	return prog, nil
}

// StratifyLevels arranges rules into strata by the level algorithm
// alone, without checking them. ok is false when no stratification
// exists (recursion through negation); the program is then the rules
// as written, in one stratum, so that Check(false) — behind
// AutoStratify, or behind the analyzers, which want to diagnose a
// broken program rather than refuse to look at it — can name the cycle
// alongside the program's other defects.
func StratifyLevels(rules []Rule) (prog Program, ok bool) {
	idb := Program{Strata: []Stratum{rules}}.IDB()
	// level[P] >= level[Q] for positive deps, >= level[Q]+1 for negative.
	level := map[string]int{}
	maxIter := len(idb)*len(idb) + len(idb) + 2
	for iter, changed := 0, true; changed; iter++ {
		if iter > maxIter {
			return Program{Strata: []Stratum{rules}}, false
		}
		changed = false
		for _, r := range rules {
			h := r.Head.Name
			for l, pr := range r.Preds() {
				if !idb[pr.Name] {
					continue
				}
				want := level[pr.Name]
				if l.Neg {
					want++
				}
				if level[h] < want {
					level[h] = want
					changed = true
				}
			}
		}
	}
	maxLevel := 0
	for _, l := range level {
		maxLevel = max(maxLevel, l)
	}
	strata := make([]Stratum, maxLevel+1)
	for _, r := range rules {
		l := level[r.Head.Name]
		strata[l] = append(strata[l], r)
	}
	// Levels can be sparse; Stratified drops the empty ones.
	return Stratified(strata...), true
}

// SplitStrataSingleIDB refines a nonrecursive program so that every
// stratum has exactly one IDB head name, preserving semantics; the
// packing-elimination proof of Lemma 4.13 assumes this normal form.
func (p Program) SplitStrataSingleIDB() (Program, error) {
	if p.HasRecursion() {
		return Program{}, fmt.Errorf("SplitStrataSingleIDB requires a nonrecursive program")
	}
	var out []Stratum
	for _, s := range p.Strata {
		// Order the stratum's head names by their dependencies restricted
		// to the stratum: the component numbering of the stratum taken as
		// a program of its own puts a name after everything it depends on.
		ids := Program{Strata: []Stratum{s}}.Deps().SCC
		byDependency := func(a, b string) int { return cmp.Compare(ids[a], ids[b]) }
		for _, h := range slices.SortedFunc(maps.Keys(ids), byDependency) {
			var sub Stratum
			for _, r := range s {
				if r.Head.Name == h {
					sub = append(sub, r)
				}
			}
			out = append(out, sub)
		}
	}
	return Stratified(out...), nil
}

// NameGen generates fresh relation names and variables that do not
// collide with a set of used names.
type NameGen struct {
	used map[string]bool
	n    int
}

// NewNameGen builds a generator treating all relation names and variable
// names of the program as used.
func NewNameGen(p Program) *NameGen {
	g := &NameGen{used: map[string]bool{}}
	for _, n := range p.RelationNames() {
		g.used[n] = true
	}
	for _, r := range p.Rules() {
		for _, v := range r.Vars() {
			g.used[v.Name] = true
		}
	}
	return g
}

// Fresh returns a new name with the given prefix, never returned before
// and not used in the program.
func (g *NameGen) Fresh(prefix string) string {
	for {
		g.n++
		name := prefix + strconv.Itoa(g.n)
		if !g.used[name] {
			g.used[name] = true
			return name
		}
	}
}

// FreshVar returns a fresh path or atomic variable.
func (g *NameGen) FreshVar(prefix string, atomic bool) Var {
	return Var{Name: g.Fresh(prefix), Atomic: atomic}
}
