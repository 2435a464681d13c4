//go:build !race

package campaign

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
