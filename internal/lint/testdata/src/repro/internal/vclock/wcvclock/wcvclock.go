// Package wcvclock sits under internal/vclock, which is no wall-clock
// boundary: host clocks read the runtime's injected clock, so a tick
// source of their own that reads the time package is flagged.
package wcvclock

import "time"

type systemSource struct{ start time.Time }

func newSystemSource() systemSource {
	return systemSource{start: time.Now()} // want `time.Now escapes the injected clock.Clock`
}

func (s systemSource) now() time.Duration {
	return time.Since(s.start) // want `time.Since escapes the injected clock.Clock`
}
