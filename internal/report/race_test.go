//go:build race

package report

// raceBuild reports a -race build, whose runtime may allocate where a
// normal build does not.
const raceBuild = true
