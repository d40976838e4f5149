// Package analyze implements a static-analysis pass over Sequence
// Datalog programs: five passes over one shared Pass, producing
// structured, positioned diagnostics.
//
// The paper's entire contribution is static structure — a program's
// feature set {A, E, I, N, P, R} decides its expressive power, and in
// particular whether recursion through sequence-constructing terms can
// grow intermediate sequences without bound (Example 2.3). The passes
// turn that structure into actionable diagnostics before a program is
// evaluated or served:
//
//   - safety: range restriction (§2.2) — head variables and variables
//     under negation must be bound by positive body atoms, with
//     sequence-term-aware binding (a head occurrence under
//     `.`-construction is constructive, not binding);
//   - stratification: negation must be stratified (§2.2);
//   - termination: recursion through sequence-constructing head terms
//     grows sequences without bound, reported together with the
//     program's fragment and expressiveness class (§3, Example 2.3);
//   - deadcode: unreachable rules, never-derivable relations,
//     duplicate rules, singleton variables;
//   - performance: joins that full-scan a relation under incremental
//     (semi-naive delta) maintenance because no argument position can
//     be index- or prefix-probed.
//
// The error passes (safety, stratification) run first; when either
// reports an error, the lint passes are skipped — their results on
// ill-formed programs would be noise. eval.Compile rejects programs
// with error-severity diagnostics and surfaces the rest on the compiled
// Prepared; the seqlog -vet mode prints every diagnostic as
// "file:line:col: code: message".
package analyze

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"seqlog/internal/ast"
)

// Severity classifies a diagnostic: Error rejects the program at
// compile/load time, Warning flags a likely defect that does not
// change the semantics, Info reports derived facts about the program
// (its fragment and class).
type Severity int

// The severities, ordered by increasing gravity.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity in lower case.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "?"
}

// Diagnostic is one analysis finding: a positioned, coded message.
// The catalog of codes lives in docs/analysis.md; every code is
// triggered at least once by the golden fixture corpus.
type Diagnostic struct {
	// Pos locates the finding in the source (zero for programs built
	// programmatically; renders as "-").
	Pos ast.Position
	// Severity is the gravity of the finding.
	Severity Severity
	// Code identifies the kind of finding, e.g. "unbound-head-var".
	Code string
	// Message is the human-readable explanation.
	Message string
	// Related points at other source positions that explain the
	// finding (the first use of a relation, the recursion cycle, ...).
	Related []Related
}

// Related is a secondary position attached to a diagnostic.
type Related = ast.Note

// String renders "line:col: code: message" without a file name.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Code, d.Message)
}

// Format renders the diagnostic and its related notes, one per line,
// in the canonical vet shape "file:line:col: code: message".
func (d Diagnostic) Format(file string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s: %s: %s", file, d.Pos, d.Code, d.Message)
	for _, r := range d.Related {
		fmt.Fprintf(&b, "\n%s:%s: note: %s", file, r.Pos, r.Message)
	}
	return b.String()
}

// Options configures one analysis run.
type Options struct {
	// Outputs lists the declared output relations of the program.
	// When non-empty, the deadcode pass reports rules that are
	// unreachable from every output (the rules rewrite.PruneUnreachable
	// would drop; both ask ast.Program.Needed).
	Outputs []string
}

// Pass carries one analysis run's shared inputs. The passes read the
// program, its §2.2 check and its dependency structure — each computed
// once — and report diagnostics through Report.
type Pass struct {
	Prog ast.Program
	Opts Options
	// Rules is Prog.Rules(), flattened once.
	Rules []ast.Rule
	// IDB marks relation names defined by some rule head.
	IDB map[string]bool
	// Deps is the dependency graph with its components.
	Deps ast.Deps
	// Written reports whether somebody wrote the strata. One stratum is
	// an order nobody wrote: the library's constructors build it, and
	// ParseProgramForAnalysis leaves a source without "---" that way
	// exactly when it has no stratification; a "---" always makes two.
	Written bool
	// Arities and Violations are Prog.Check(Written): the definition of
	// well-formedness the safety and stratification passes report from.
	Arities    map[string]int
	Violations []ast.Violation

	report func(Diagnostic)
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic with a formatted message.
func (p *Pass) Reportf(pos ast.Position, sev Severity, code, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Severity: sev, Code: code, Message: fmt.Sprintf(format, args...)})
}

// Check runs the passes over the program and returns the diagnostics
// sorted by position, severity, and code. When an error pass reports,
// the lint passes are skipped.
func Check(prog ast.Program, opts Options) []Diagnostic {
	diags, _ := CheckWithArities(prog, opts)
	return diags
}

// CheckWithArities is Check for a caller that goes on to compile the
// program: it also returns the arity table the §2.2 check built.
func CheckWithArities(prog ast.Program, opts Options) ([]Diagnostic, map[string]int) {
	var diags []Diagnostic
	pass := &Pass{
		Prog:    prog,
		Opts:    opts,
		Rules:   prog.Rules(),
		IDB:     prog.IDB(),
		Deps:    prog.Deps(),
		Written: len(prog.Strata) > 1,
		report:  func(d Diagnostic) { diags = append(diags, d) },
	}
	pass.Arities, pass.Violations = prog.Check(pass.Written)
	runSafety(pass)
	runStratification(pass)
	if !HasErrors(diags) {
		runTermination(pass)
		runDeadCode(pass)
		runPerf(pass)
	}
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(a.Pos.Compare(b.Pos), cmp.Compare(b.Severity, a.Severity),
			strings.Compare(a.Code, b.Code), strings.Compare(a.Message, b.Message))
	})
	return diags, pass.Arities
}

// HasErrors reports whether any diagnostic has error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors filters the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// DiagError is the error eval.Compile returns when analysis rejects a
// program: the error-severity diagnostics, rendered one per line.
// Callers that want the structured list (seqlogd's load reply, the
// vet CLIs) unwrap it with errors.As.
type DiagError struct {
	Diags []Diagnostic
}

// Error renders the diagnostics one per line.
func (e *DiagError) Error() string {
	lines := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}
