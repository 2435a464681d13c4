// Package clock is the injected time abstraction for every package that
// would otherwise touch the wall clock. Core, campaign, and probe code
// must reach time exclusively through a Clock (lokilint's wallclock
// analyzer enforces this), so one testbed can run either against the
// operating system's clock (Real) or against a virtual-time scheduler
// (Virtual) that advances simulated time to the next due event whenever
// the runtime quiesces — sync round-trips, fault windows, and experiment
// timeouts then complete instantly while keeping their exact timing
// geometry.
//
// The API deliberately has no channel-returning After/NewTimer: receiving
// from a timer channel blocks in a way no scheduler can observe, which is
// exactly what makes virtual time impossible to retrofit. Blocking is
// expressed with a Waiter (a wait/notify cell with a deadline) and
// deferred work with AfterFunc; both are visible to the virtual scheduler,
// so it always knows whether the runtime is quiescent.
package clock

import (
	"time"
)

// Clock is an injected time source and scheduler.
type Clock interface {
	// Now returns the current time. Under virtual time this is simulated
	// time (frozen while any task runs), not the wall clock.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for exactly d.
	Sleep(d time.Duration)
	// AfterFunc runs fn after d on its own goroutine (a tracked task under
	// virtual time). The returned Timer can cancel it before it fires.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewWaiter returns a fresh wait/notify cell bound to this clock.
	NewWaiter() Waiter
	// Go runs fn on a new goroutine the clock knows about. Any goroutine
	// that will block through a Waiter or Sleep must be spawned this way,
	// or the virtual scheduler cannot tell waiting from running.
	Go(fn func())
}

// Timer is a cancelable deferred function, as returned by AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Waiter is a single-goroutine wait/notify cell: the condition-variable
// replacement for select-on-channel timeouts. Wakes are sticky — a Wake
// arriving before Wait makes that Wait return immediately — and coalesce,
// so consumers must loop and re-check their condition, exactly as with a
// condition variable.
type Waiter interface {
	// Wake unblocks a pending or future Wait. Safe from any goroutine.
	Wake()
	// Wait blocks until Wake is called (true) or d elapses (false).
	// d < 0 means no deadline; d == 0 consumes a sticky wake or returns
	// false immediately.
	Wait(d time.Duration) bool
}

// Real is the wall-clock implementation, backed by the time package.
// The zero value is ready to use.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

func (Real) Now() time.Time                  { return time.Now() }
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
func (Real) Sleep(d time.Duration)           { time.Sleep(d) }
func (Real) Go(fn func())                    { go fn() }
func (Real) NewWaiter() Waiter               { return &realWaiter{ch: make(chan struct{}, 1)} }
func (Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// realWaiter implements Waiter over a capacity-1 channel: the buffered
// send is the sticky wake, the failed send is the coalescing.
type realWaiter struct{ ch chan struct{} }

func (w *realWaiter) Wake() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

func (w *realWaiter) Wait(d time.Duration) bool {
	if d < 0 {
		<-w.ch
		return true
	}
	if d == 0 {
		select {
		case <-w.ch:
			return true
		default:
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.ch:
		return true
	case <-t.C:
		return false
	}
}

// SpinWait sleeps for d with the best precision the clock offers. The
// virtual clock is exact by construction; the real clock busy-spins under
// a millisecond, because time.Sleep's granularity would otherwise swamp
// the sync mini-phases' microsecond spacing (§2.3). This is the one
// sanctioned precision spin, kept here so callers stay wall-clock free.
func SpinWait(c Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if _, ok := c.(*Virtual); ok {
		c.Sleep(d)
		return
	}
	if d >= time.Millisecond {
		c.Sleep(d)
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}

var _ Clock = Real{}
