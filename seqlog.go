// Package seqlog is a complete implementation of Sequence Datalog as
// studied in "Expressiveness within Sequence Datalog" (Aamer, Hidders,
// Paredaens, Van den Bussche; PODS 2021, extended version
// arXiv:2206.06754).
//
// It provides:
//
//   - the sequence data model (atoms, packed values, paths) and a
//     parser for programs and instances (§2);
//   - a stratified, semi-naive evaluator with termination guards
//     (§2.3) and hash-indexed joins chosen by a binding-aware planner;
//   - a serving layer: Compile splits evaluation into a reusable
//     compiled form (Prepared), and Engine keeps a materialized
//     instance at fixpoint under incremental Assert and Retract
//     batches (delete-and-rederive maintenance) while concurrent
//     readers query copy-on-write Snapshots (cmd/seqlogd serves this
//     over a line protocol);
//   - associative unification for path-expression equations — pig-pug
//     with the paper's extensions (§4.3, Figure 2);
//   - every redundancy theorem as an executable program transformation:
//     arity (Thm 4.2), equations (Thm 4.7), packing (Thm 4.15),
//     intermediate predicates (Thm 4.16);
//   - the Theorem 6.1 subsumption decision procedure, the Figure 1
//     Hasse diagram of the 11 fragment equivalence classes, and a
//     Figure 3-style rewrite planner;
//   - the sequence relational algebra of §7 with the Theorem 7.1
//     compiler in both directions;
//   - a library of the paper's example queries and workload generators.
//
// The subpackages under internal/ hold the implementation; this
// package re-exports the surface a client needs.
package seqlog

import (
	"seqlog/internal/algebra"
	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/core"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
	"seqlog/internal/unify"
	"seqlog/internal/value"
)

// Data model (§2.1).
type (
	// Value is an atomic or packed value.
	Value = value.Value
	// Atom is an atomic value from dom.
	Atom = value.Atom
	// Packed is a packed value <p>.
	Packed = value.Packed
	// Path is a finite sequence of values.
	Path = value.Path
	// Tuple is a row of a relation.
	Tuple = instance.Tuple
	// Relation is a finite n-ary relation on paths.
	Relation = instance.Relation
	// Instance assigns relations to relation names.
	Instance = instance.Instance
)

// Syntax (§2.2).
type (
	// Program is a stratified Sequence Datalog program.
	Program = ast.Program
	// Rule is H :- B.
	Rule = ast.Rule
	// Stratum is a set of safe rules.
	Stratum = ast.Stratum
	// FeatureSet is a fragment: a subset of {A, E, I, N, P, R}.
	FeatureSet = ast.FeatureSet
	// Feature is one of the six features of §3.
	Feature = ast.Feature
)

// The six features (§3).
const (
	FeatArity         = ast.FeatArity
	FeatEquations     = ast.FeatEquations
	FeatIntermediates = ast.FeatIntermediates
	FeatNegation      = ast.FeatNegation
	FeatPacking       = ast.FeatPacking
	FeatRecursion     = ast.FeatRecursion
)

// NewInstance creates an empty instance.
func NewInstance() *Instance { return instance.New() }

// PathOf builds a flat path from atom texts.
func PathOf(atoms ...string) Path { return value.PathOf(atoms...) }

// Parse parses a program, auto-stratifying when no explicit "---"
// separators occur.
func Parse(src string) (Program, error) { return parser.ParseProgram(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) Program { return parser.MustParseProgram(src) }

// ParseInstance parses ground facts like "R(a.b.c)." into an instance.
func ParseInstance(src string) (*Instance, error) { return parser.ParseInstance(src) }

// MustParseInstance is ParseInstance that panics on error.
func MustParseInstance(src string) *Instance { return parser.MustParseInstance(src) }

// ParsePath parses a ground path like "a.<b.c>.d".
func ParsePath(src string) (Path, error) { return parser.ParsePath(src) }

// Limits bounds an evaluation (§2.3): MaxFacts and MaxPathLen turn
// runaway evaluations into ErrNonTermination. The zero
// value uses generous defaults. Every evaluation — Eval,
// Prepared.Eval, NewEngine and Engine maintenance — runs on the calling
// goroutine.
type Limits = eval.Limits

// ErrNonTermination reports evaluation exceeding its limits.
var ErrNonTermination = eval.ErrNonTermination

// Serving (the compile/execute split and the persistent engine).
type (
	// Prepared is a compiled program: validated, split into its
	// dependency components in evaluation order, with every rule's join
	// plan and the relation arities computed once. Reuse it to evaluate
	// the same program repeatedly without re-planning.
	Prepared = eval.Prepared
	// Engine is a persistent evaluator: a Prepared program plus a live
	// materialized instance, maintained incrementally under Assert and
	// Retract (delete-and-rederive) and served consistently through
	// copy-on-write snapshots.
	Engine = eval.Engine
	// AssertStats reports what one Engine.Assert did: the facts
	// genuinely inserted plus the embedded MaintenanceStats.
	AssertStats = eval.AssertStats
	// RetractStats reports what one Engine.Retract did: the facts
	// genuinely removed plus the embedded MaintenanceStats.
	RetractStats = eval.RetractStats
	// MaintenanceStats is the part of AssertStats and RetractStats both
	// directions share, because both run the same maintenance: net
	// derived facts, the overdelete / stamp-prune / rederive work,
	// dependency components skipped or maintained incrementally,
	// PlanStats, and the copy-on-write barrier work.
	MaintenanceStats = eval.MaintenanceStats
	// EngineStats is a point-in-time summary of an Engine.
	EngineStats = eval.EngineStats
	// PlanStats counts plan executions during maintenance: how many
	// runs of delta-hoisted plan variants a positive atom's change
	// windows drove (VariantRuns) and how many a negated atom's did
	// (BaseRuns), one per window, and how the non-delta join steps were
	// served (exact index probe, ground prefix probe, ground suffix
	// probe, or full scan). A field of MaintenanceStats and EngineStats.
	PlanStats = eval.PlanStats
)

// Compile analyzes and plans a program once, returning a reusable
// *Prepared. A program with error-severity diagnostics is rejected
// with a *DiagError; warnings are surfaced on Prepared.Diagnostics.
// Eval/Query/Holds are one-shot conveniences built on it.
func Compile(p Program) (*Prepared, error) { return eval.Compile(p) }

// Static analysis (the seqlog -vet layer).
type (
	// Diagnostic is one static-analysis finding: a positioned, coded
	// message (see docs/analysis.md for the catalog).
	Diagnostic = analyze.Diagnostic
	// DiagSeverity is the gravity of a Diagnostic.
	DiagSeverity = analyze.Severity
	// DiagError is the error Compile returns when the analyzer rejects
	// a program; it carries the structured diagnostic list.
	DiagError = analyze.DiagError
	// VetOptions configures Vet.
	VetOptions = analyze.Options
)

// Diagnostic severities.
const (
	SeverityInfo    = analyze.Info
	SeverityWarning = analyze.Warning
	SeverityError   = analyze.Error
)

// Vet runs every registered static-analysis pass over the program and
// returns the diagnostics sorted by position: range-restriction and
// stratification errors, sequence-growth (nontermination) and dead-code
// warnings, incremental-maintenance performance lints, and the
// program's fragment and expressiveness class. Compile runs the same
// analysis (without Outputs, so without the unreachable-rule lint) and
// keeps the non-error part on Prepared.Diagnostics; Vet is for tools
// that want the full report without compiling.
func Vet(p Program, opts VetOptions) []Diagnostic { return analyze.Check(p, opts) }

// NewEngine runs the initial fixpoint of a compiled program over edb
// (shared copy-on-write; a nil edb means empty) and returns the live
// engine. Subsequent Assert and Retract calls maintain the
// materialization incrementally (retraction by delete-and-rederive);
// Snapshot/Query serve consistent reads concurrently.
func NewEngine(p *Prepared, edb *Instance, limits Limits) (*Engine, error) {
	return eval.NewEngine(p, edb, limits)
}

// Eval computes P(I) one dependency component at a time. It compiles the program per
// call; use Compile + Prepared.Eval (or an Engine) for repeated
// evaluation of the same program.
func Eval(p Program, edb *Instance, limits Limits) (*Instance, error) {
	return eval.Eval(p, edb, limits)
}

// Query evaluates the program and returns the output relation.
func Query(p Program, edb *Instance, output string, limits Limits) (*Relation, error) {
	return eval.Query(p, edb, output, limits)
}

// Holds evaluates a boolean (nullary-output) query.
func Holds(p Program, edb *Instance, output string, limits Limits) (bool, error) {
	return eval.Holds(p, edb, output, limits)
}

// Classification (§3, §6).
type (
	// Fragment is a set of features.
	Fragment = core.Fragment
	// Class is an equivalence class of fragments.
	Class = core.Class
	// Lattice is the Figure 1 Hasse diagram.
	Lattice = core.Lattice
	// PlanResult is the outcome of RewriteTo.
	PlanResult = rewrite.PlanResult
)

// Frag builds a fragment from feature letters, e.g. Frag("EIN").
func Frag(letters string) Fragment { return core.Frag(letters) }

// Subsumes decides F1 ≤ F2 by Theorem 6.1.
func Subsumes(f1, f2 Fragment) bool { return core.Subsumes(f1, f2) }

// Equivalent reports mutual subsumption.
func Equivalent(f1, f2 Fragment) bool { return core.Equivalent(f1, f2) }

// Classes partitions the 16 core fragments into the paper's 11
// equivalence classes.
func Classes() []Class { return core.Classes() }

// BuildLattice computes the Figure 1 diagram.
func BuildLattice() *Lattice { return core.BuildLattice() }

// RewriteTo moves a program into the target fragment by composing the
// paper's constructive rewritings (Figure 3).
func RewriteTo(p Program, output string, target Fragment) (PlanResult, error) {
	return rewrite.ToFragment(p, output, target)
}

// Transformations (§4).

// EliminateArity removes predicates of arity greater than one
// (Theorem 4.2, Lemma 4.1 encoding).
func EliminateArity(p Program) (Program, error) {
	return rewrite.EliminateArity(p, rewrite.DefaultArityMarkers)
}

// EliminateEquations removes positive equations and nonequalities
// (Theorem 4.7; Lemma 4.5 for the negated ones).
func EliminateEquations(p Program) (Program, error) {
	return rewrite.EliminateEquations(p)
}

// EliminatePacking removes packing from a program computing a flat
// unary query (Theorem 4.15).
func EliminatePacking(p Program, output string) (Program, error) {
	return rewrite.EliminatePacking(p, output)
}

// EliminateIntermediates folds intermediate predicates away
// (Theorem 4.16; requires equations present, negation and recursion
// absent).
func EliminateIntermediates(p Program, output string) (Program, error) {
	return rewrite.EliminateIntermediates(p, output)
}

// ToClassical translates a program to classical Datalog over the
// two-bounded encoding (Lemma 5.4).
func ToClassical(p Program) (Program, error) { return rewrite.ToClassical(p) }

// Unification (§4.3).
type (
	// Equation is e1 = e2 over path expressions.
	Equation = unify.Equation
	// UnifyOptions configure the solver.
	UnifyOptions = unify.Options
	// UnifyResult carries the symbolic solutions.
	UnifyResult = unify.Result
)

// Unify solves a path-expression equation by the extended pig-pug
// procedure; complete on one-sided nonlinear equations.
func Unify(eq Equation, opts UnifyOptions) UnifyResult { return unify.Solve(eq, opts) }

// Algebra (§7).
type AlgebraExpr = algebra.Expr

// CompileAlgebra translates a nonrecursive program into a sequence
// relational algebra expression (Theorem 7.1).
func CompileAlgebra(p Program, output string) (AlgebraExpr, error) {
	return algebra.Compile(p, output)
}

// EvalAlgebra evaluates an algebra expression on an instance.
func EvalAlgebra(e AlgebraExpr, inst *Instance) (*Relation, error) {
	return algebra.Eval(e, inst)
}

// AlgebraToDatalog translates an algebra expression back to a
// nonrecursive program (the converse direction of Theorem 7.1).
func AlgebraToDatalog(e AlgebraExpr, output string) (Program, error) {
	return algebra.ToDatalog(e, output)
}

// Paper queries (library of every example program in the paper).
type PaperQuery = queries.Query

// PaperQueries returns the registered example queries, sorted by name.
func PaperQueries() []PaperQuery { return queries.All() }

// GetPaperQuery returns a registered example query by name.
func GetPaperQuery(name string) (PaperQuery, error) { return queries.Get(name) }
