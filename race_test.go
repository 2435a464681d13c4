//go:build race

package loki

// raceBuild reports a -race build. Its sync.Pool drops pooled values at
// random, so a pass may allocate more than the budget's measurement.
const raceBuild = true
