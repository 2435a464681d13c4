//go:build !race

package report

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
