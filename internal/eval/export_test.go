package eval

// AgreementEDBs gives the external tests (the reference in spec_test.go
// is one) the agreement EDBs of the internal ones.
var AgreementEDBs = agreementEDBs

// SetProofDepth sets the pruner's proof depth of e; the walk runs at 0
// too, where only the birth-bounded check keeps a candidate.
func SetProofDepth(e *Engine, d int) { e.setProofDepth(d) }
