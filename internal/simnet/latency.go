package simnet

import (
	"math/rand"

	"repro/internal/vclock"
)

// A LatencyModel samples one-way message delays. Samples must be
// non-negative.
type LatencyModel interface {
	Sample(rng *rand.Rand) vclock.Ticks
}

// Exponential samples Min plus an exponential tail with the given mean tail
// length. This is the classic LAN model: a hard propagation floor plus
// queueing delay. The thesis's convex-hull synchronization gets its tight
// bounds from messages that experience delays near the floor.
type Exponential struct {
	Min      vclock.Ticks
	MeanTail vclock.Ticks
}

// Sample implements LatencyModel.
func (e Exponential) Sample(rng *rand.Rand) vclock.Ticks {
	return e.Min + vclock.Ticks(rng.ExpFloat64()*float64(e.MeanTail))
}

// Timesliced models the delay observed by the thesis's performance analysis
// (§3.2.2): the wire time is small, but the receiving process must be
// scheduled by the OS before it can react, so the effective latency is
// dominated by context-switch waits quantized by the scheduler timeslice.
//
// A sample is Wire + S where, with probability PReady, the receiver is
// already running (S = 0 plus a small dispatch cost), and otherwise the
// receiver waits a uniform fraction of one timeslice for each of the other
// runnable processes ahead of it.
type Timesliced struct {
	Wire      vclock.Ticks // raw network + kernel path time
	Timeslice vclock.Ticks // OS scheduling quantum (10 ms or 1 ms in the thesis)
	PReady    float64      // probability the receiver is scheduled immediately
	Runnable  int          // other runnable processes competing for the CPU
}

// Sample implements LatencyModel.
func (t Timesliced) Sample(rng *rand.Rand) vclock.Ticks {
	d := t.Wire
	if rng.Float64() < t.PReady {
		return d
	}
	// The receiver waits for the remainder of the current quantum plus a
	// random number of whole quanta for competing processes.
	remainder := vclock.Ticks(rng.Float64() * float64(t.Timeslice))
	ahead := 0
	if t.Runnable > 0 {
		ahead = rng.Intn(t.Runnable + 1)
	}
	return d + remainder + vclock.Ticks(ahead)*t.Timeslice
}
