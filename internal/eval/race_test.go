//go:build race

package eval_test

// raceBuild is set under the race detector. TestMaintenanceWalk runs on
// one goroutine, so the detector adds cost there and nothing to find:
// it runs every walk at its smallest depth.
const raceBuild = true
