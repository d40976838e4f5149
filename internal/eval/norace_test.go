//go:build !race

package eval_test

const raceBuild = false
