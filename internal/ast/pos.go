package ast

import (
	"cmp"
	"fmt"
)

// Pos is a 1-based source position. The parser stamps every predicate
// and equation it builds with the position of its first token;
// programs built programmatically carry the zero Pos, which renders as
// "-" and reports false from IsValid. Positions ride along through
// Clone, substitution, and renaming, so diagnostics computed on a
// rewritten program still point at the source that produced it.
type Position struct {
	Line, Col int
}

// IsValid reports whether the position was set (parsed source).
func (p Position) IsValid() bool { return p.Line > 0 }

// Compare orders positions by line, then column (the zero Pos first).
func (p Position) Compare(q Position) int {
	return cmp.Or(cmp.Compare(p.Line, q.Line), cmp.Compare(p.Col, q.Col))
}

// String renders "line:col", or "-" for the zero Pos.
func (p Position) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// PosError is an error carrying a source position, used by Validate,
// Arities and AutoStratify (it is a Violation without its code and
// notes) so that structural errors report "line:col: msg" exactly like
// lexer and parser errors do. The position may be the zero Pos for
// programmatically built programs; then only the message prints.
type PosError struct {
	Pos Position
	Msg string
}

// Error implements error.
func (e *PosError) Error() string {
	if e.Pos.IsValid() {
		return e.Pos.String() + ": " + e.Msg
	}
	return e.Msg
}
