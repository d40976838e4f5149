//go:build race

package eval_test

// raceBuild is set under the race detector. TestMaintenanceWalk and
// TestRetractChurnProofCost run on one goroutine, so the detector adds
// cost there and nothing to find: the walk runs every alphabet at its
// smallest depth, and the churn replay is skipped.
const raceBuild = true
