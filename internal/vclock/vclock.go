// Package vclock provides the virtual clock substrate used throughout the
// Loki reproduction.
//
// The original Loki testbed ran on multiple physical hosts whose hardware
// clocks disagreed by an unknown offset and drift; Loki's analysis phase
// recovers bounds on that disagreement off-line (thesis §2.5). To reproduce
// that on a single machine, every simulated host owns a Clock that maps a
// shared physical time base (a Source) through a hidden affine transform
//
//	C(t) = offset + drift*t
//
// optionally quantized to a read granularity. The transform is hidden from
// the runtime exactly as a hardware clock's error is, but tests can query the
// ground truth to validate the convex-hull synchronization bounds. There is
// one time base: a runtime's Source is its own scheduling clock, wall or
// simulated (internal/clock), so this package reads no clock of its own.
package vclock

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Ticks is a point in time, in nanoseconds. Depending on context it is
// either physical time (from a Source) or a host-local clock reading.
// The thesis records times as 64-bit values split into Hi/Lo 32-bit halves
// (§3.5.6); Ticks is the in-memory form of that 64-bit value.
type Ticks int64

// Duration converts t, interpreted as a span, to a time.Duration.
func (t Ticks) Duration() time.Duration { return time.Duration(t) }

// Millis reports t in (fractional) milliseconds, the unit used by the
// thesis's figures.
func (t Ticks) Millis() float64 { return float64(t) / 1e6 }

// FromDuration converts a time.Duration to Ticks.
func FromDuration(d time.Duration) Ticks { return Ticks(d) }

// FromMillis converts fractional milliseconds to Ticks.
func FromMillis(ms float64) Ticks { return Ticks(ms * 1e6) }

// Hi returns the upper 32 bits of the tick value, matching the
// <EventTime.Hi> field of the local timeline format (§3.5.6).
func (t Ticks) Hi() uint32 { return uint32(uint64(t) >> 32) }

// Lo returns the lower 32 bits of the tick value, matching the
// <EventTime.Lo> field of the local timeline format (§3.5.6).
func (t Ticks) Lo() uint32 { return uint32(uint64(t)) }

// FromHiLo reassembles a tick value from its 32-bit halves.
func FromHiLo(hi, lo uint32) Ticks { return Ticks(uint64(hi)<<32 | uint64(lo)) }

// A Source provides physical time. It is the single base that all host
// clocks in one testbed derive from; every clock.Clock is one.
// Implementations must be safe for concurrent use.
type Source interface {
	// NowTicks returns the current physical time in nanoseconds since the
	// source's epoch. It must be monotonically non-decreasing.
	NowTicks() Ticks
}

// ManualSource is a Source advanced explicitly by the caller. It is the time
// base for discrete-event tools (clocksync.Exchange, lokirun getstamps), where
// the caller owns time.
type ManualSource struct {
	mu  sync.Mutex
	now Ticks
}

// NewManualSource returns a ManualSource positioned at start.
func NewManualSource(start Ticks) *ManualSource { return &ManualSource{now: start} }

// NowTicks implements Source.
func (s *ManualSource) NowTicks() Ticks {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves the source forward by d. Advancing by a negative duration is
// a programming error and panics, because Sources must be monotonic.
func (s *ManualSource) Advance(d Ticks) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: ManualSource.Advance(%d): negative advance", d))
	}
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
}

// Set moves the source to t. Moving backwards panics.
func (s *ManualSource) Set(t Ticks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		panic(fmt.Sprintf("vclock: ManualSource.Set(%d): before current time %d", t, s.now))
	}
	s.now = t
}

// Clock is one host's view of time: an affine transform of a Source reading,
// optionally quantized and jittered to model a timer interrupt granularity.
//
// The zero value is not usable; construct with NewClock.
type Clock struct {
	source      Source
	offset      Ticks   // C(0), nanoseconds
	drift       float64 // dC/dt; 1.0 is a perfect clock, 1.0+100e-6 runs fast by 100 ppm
	granularity Ticks   // readings are floored to a multiple of this (0 = exact)
	jitter      Ticks   // max uniform jitter added to a reading (models sampling noise)

	// A jitter-free reading takes no lock: last and stepped are atomics.
	// mu serializes only the jitter generator.
	last    atomic.Int64 // the latest reading, clamping the next (monotonicity)
	stepped atomic.Int64 // cumulative Step adjustments (clock-setting faults)
	mu      sync.Mutex
	rng     *rand.Rand
	seed    int64 // the jitter generator's, for Reset
}

// ClockConfig describes the hidden error of a host clock.
type ClockConfig struct {
	// Offset is the clock's value at the source's epoch.
	Offset Ticks
	// DriftPPM is the clock's rate error in parts per million; the
	// effective rate is 1 + DriftPPM/1e6. Typical crystal oscillators are
	// within ±100 ppm.
	DriftPPM float64
	// Granularity, if non-zero, floors readings to a multiple of itself,
	// modeling a timer-interrupt driven clock. Zero means a cycle-accurate
	// clock, like the processor timestamp counter the thesis prefers (§2.5).
	Granularity Ticks
	// Jitter, if non-zero, adds uniform noise in [0, Jitter) to each
	// reading, modeling sampling cost variability. Requires Seed.
	Jitter Ticks
	// Seed seeds the jitter generator. Ignored when Jitter is zero.
	Seed int64
}

// NewClock returns a clock over source with the given hidden error.
func NewClock(source Source, cfg ClockConfig) *Clock {
	c := &Clock{
		source:      source,
		offset:      cfg.Offset,
		drift:       1 + cfg.DriftPPM/1e6,
		granularity: cfg.Granularity,
		jitter:      cfg.Jitter,
	}
	if cfg.Jitter > 0 {
		c.rng, c.seed = rand.New(rand.NewSource(cfg.Seed)), cfg.Seed
	}
	c.last.Store(math.MinInt64)
	return c
}

// Now returns the host-local time. Successive readings never decrease;
// with zero granularity they strictly increase: a cycle-accurate clock
// (the processor timestamp counter the thesis prefers, §2.5) never
// returns the same reading twice, which is what lets the analysis phase
// order same-clock records exactly. Under a discrete-event source the
// underlying time may not move between two reads, so the strictness is
// enforced here. Clocks with a read granularity keep the floored value:
// equal readings on a coarse clock are real, unorderable behaviour. The
// clamp is a compare-and-swap on the latest reading, so concurrent readers
// still each get a reading of their own.
func (c *Clock) Now() Ticks {
	t := c.At(c.source.NowTicks()) + Ticks(c.stepped.Load())
	if c.rng != nil {
		c.mu.Lock()
		t += Ticks(c.rng.Int63n(int64(c.jitter)))
		c.mu.Unlock()
	}
	for {
		last := c.last.Load()
		r := t
		if int64(r) <= last {
			r = Ticks(last)
			if c.granularity == 0 {
				r++
			}
		}
		if c.last.CompareAndSwap(last, int64(r)) {
			return r
		}
	}
}

// Step shifts all subsequent readings by delta — a misbehaving operator or
// NTP daemon setting the host clock mid-run. The shift is excluded from the
// At/AlphaBeta ground truth: a stepped clock violates the affine model the
// off-line synchronization assumes, which is exactly the misbehaviour a
// chaos campaign wants the analysis phase to face. Monotonicity of Now is
// preserved: after a negative step, readings creep forward from the
// previous maximum until the clock catches up, like a monotonic-clamped
// OS clock under slewing.
func (c *Clock) Step(delta Ticks) { c.stepped.Add(int64(delta)) }

// TrueStepped returns the cumulative Step adjustment (ground truth for
// tests).
func (c *Clock) TrueStepped() Ticks { return Ticks(c.stepped.Load()) }

// ClearStep removes accumulated Step adjustments and releases the
// monotonic clamp, restoring the configured affine transform. Runtimes
// call it between experiments: timestamps never compare across
// experiments, so the backward jump is safe, and without it one
// experiment's clock fault would poison every later experiment on the
// same testbed.
func (c *Clock) ClearStep() {
	c.stepped.Store(0)
	c.last.Store(math.MinInt64)
}

// Reset makes the clock read exactly what a clock NewClock builds from the
// same source and configuration reads: ClearStep, and the jitter generator
// reseeded in place, back at the start of its seed's sequence. A testbed
// that outlives its study or matrix point resets its host clocks before
// the next one.
func (c *Clock) Reset() {
	c.ClearStep()
	if c.rng != nil {
		c.mu.Lock()
		c.rng.Seed(c.seed)
		c.mu.Unlock()
	}
}

// At returns the (noise-free) local time corresponding to physical time t.
// It exposes the hidden transform for test validation and for discrete-event
// simulation, where the caller owns physical time.
func (c *Clock) At(t Ticks) Ticks {
	v := c.offset + Ticks(c.drift*float64(t))
	if c.granularity > 0 {
		v -= v % c.granularity
	}
	return v
}

// AlphaBeta returns the ground-truth affine relation between a reference
// clock r and clock i, in the thesis's convention (Eqn. 2.1):
//
//	C_i(t) = alpha + beta*C_r(t)
//
// so that a local reading on i projects to the reference timeline as
// (C_i - alpha)/beta. Granularity and jitter are excluded: they are part of
// the measurement noise the convex-hull bounds must absorb.
func AlphaBeta(r, i *Clock) (alpha Ticks, beta float64) {
	beta = i.drift / r.drift
	alpha = i.offset - Ticks(float64(r.offset)*beta)
	return alpha, beta
}
