//go:build !race

package loki

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
