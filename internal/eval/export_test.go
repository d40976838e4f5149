package eval

// AgreementEDBs gives the external tests (the reference in spec_test.go
// is one) the agreement EDBs of the internal ones.
var AgreementEDBs = agreementEDBs
