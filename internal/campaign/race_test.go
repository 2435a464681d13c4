//go:build race

package campaign

// raceBuild reports a -race build. Its sync.Pool drops pooled values at
// random, so encoding/json allocates more per journaled record.
const raceBuild = true
