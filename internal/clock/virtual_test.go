package clock

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// The driver pattern every test uses mirrors the campaign engine: Drive
// marks the test goroutine a tracked task and enables timer firing;
// Release ends the window. Tasks spawned with Go and timer bodies run
// strictly serialized, so plain (unlocked) test state is also a race-
// detector check of the scheduler's happens-before chain.

func TestVirtualNowFixedEpoch(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); !got.Equal(time.Unix(0, 0).UTC()) {
		t.Fatalf("fresh virtual clock at %v, want the fixed epoch", got)
	}
}

func TestVirtualSleepAdvancesExactly(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	start := v.Now()
	v.Sleep(5 * time.Millisecond)
	if got := v.Now().Sub(start); got != 5*time.Millisecond {
		t.Fatalf("Sleep(5ms) advanced %v", got)
	}
	// Sleep of zero or negative duration returns without parking.
	v.Sleep(0)
	v.Sleep(-time.Second)
	if got := v.Now().Sub(start); got != 5*time.Millisecond {
		t.Fatalf("non-positive Sleep advanced time to %v", got)
	}
}

func TestVirtualTimerOrdering(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	var order []int
	var stamps []vclock.Ticks
	note := func(id int) func() {
		return func() {
			order = append(order, id)
			stamps = append(stamps, v.NowTicks())
		}
	}
	// Registered out of deadline order; 4 shares 2's deadline and must
	// fire after it (creation order breaks the tie).
	v.AfterFunc(3*time.Millisecond, note(3))
	v.AfterFunc(1*time.Millisecond, note(1))
	v.AfterFunc(2*time.Millisecond, note(2))
	v.AfterFunc(2*time.Millisecond, note(4))
	v.Sleep(5 * time.Millisecond)
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	wantAt := []vclock.Ticks{1e6, 2e6, 2e6, 3e6}
	for i, at := range wantAt {
		if stamps[i] != at {
			t.Fatalf("timer %d fired at %v, want %v", order[i], stamps[i], at)
		}
	}
}

// TestVirtualAfterFuncReusesFiredEntries: an AfterFunc fires once, at its
// deadline; its fired entry goes onto the clock's fired list with its body
// cleared, so the list keeps no closure alive; once warm, an AfterFunc that
// fires allocates nothing; and a reused entry still takes a fresh creation
// sequence, so equal deadlines fire in creation order when reused entries
// and Sleep waiters interleave. Mutations: allocate a fresh entry in
// AfterFunc (the allocation check fails), leave fn set when an entry fires
// (the body check fails), or keep a reused entry's old seq (the order
// check fails).
func TestVirtualAfterFuncReusesFiredEntries(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	fired := 0
	var at vclock.Ticks
	body := func() { fired++; at = v.NowTicks() }
	start := v.NowTicks()
	v.AfterFunc(time.Millisecond, body)
	v.Sleep(2 * time.Millisecond)
	v.Sleep(2 * time.Millisecond)
	if fired != 1 || at != start+1e6 {
		t.Fatalf("timer fired %d times, last at %v; want once, at %v", fired, at, start+1e6)
	}
	if len(v.fired) != 1 {
		t.Fatalf("%d entries on the fired list after one timer fired, want 1", len(v.fired))
	}

	round := func() {
		v.AfterFunc(time.Microsecond, body)
		v.Sleep(2 * time.Microsecond)
	}
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Fatalf("an AfterFunc that fires allocates %v objects once warm, want 0", got)
	}
	if fired != 1002 {
		t.Fatalf("%d bodies ran, want 1002", fired)
	}

	// Deadline T is shared by two timers and two sleepers, made in the
	// order t1, s1, t2, s2 across two instants; the timers take entries
	// off the fired list from the second round on.
	var order []string
	note := func(id string) func() { return func() { order = append(order, id) } }
	sleeper := func(id string, d time.Duration) func() {
		return func() { v.Sleep(d); note(id)() }
	}
	for r := 0; r < 3; r++ {
		order = order[:0]
		v.AfterFunc(4*time.Microsecond, note("t1"))
		v.Go(sleeper("s1", 4*time.Microsecond))
		v.Sleep(time.Microsecond) // s1 parks after the driver
		v.AfterFunc(3*time.Microsecond, note("t2"))
		v.Go(sleeper("s2", 3*time.Microsecond))
		v.Sleep(10 * time.Microsecond)
		if got := strings.Join(order, " "); got != "t1 s1 t2 s2" {
			t.Fatalf("round %d fired %q, want creation order \"t1 s1 t2 s2\"", r, got)
		}
		if len(v.fired) != 2 {
			t.Fatalf("round %d: %d entries on the fired list, want 2", r, len(v.fired))
		}
	}
	for i, e := range v.fired {
		if e.fn != nil || e.index != -1 {
			t.Fatalf("fired entry %d keeps its body or heap slot (fn set: %v, index %d)", i, e.fn != nil, e.index)
		}
	}
}

func TestVirtualConcurrentSleepers(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	type wake struct {
		id int
		at vclock.Ticks
	}
	var wakes []wake
	for i := 1; i <= 4; i++ {
		id := i
		v.Go(func() {
			v.Sleep(time.Duration(id) * time.Millisecond)
			wakes = append(wakes, wake{id, v.NowTicks()})
		})
	}
	v.Sleep(10 * time.Millisecond)
	if len(wakes) != 4 {
		t.Fatalf("%d sleepers woke, want 4", len(wakes))
	}
	for i, w := range wakes {
		if w.id != i+1 {
			t.Fatalf("wake order %v, want deadline order", wakes)
		}
		if w.at != vclock.Ticks(w.id)*1e6 {
			t.Fatalf("sleeper %d woke at %v, want exactly %dms", w.id, w.at, w.id)
		}
	}
}

func TestVirtualWaiterStickyWake(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	w := v.NewWaiter()
	w.Wake()
	w.Wake() // coalesces with the first
	start := v.NowTicks()
	if !w.Wait(time.Hour) {
		t.Fatal("Wait after Wake reported timeout")
	}
	if v.NowTicks() != start {
		t.Fatal("sticky wake consumed simulated time")
	}
	// The second Wake coalesced: nothing is pending now.
	if w.Wait(0) {
		t.Fatal("coalesced Wake delivered twice")
	}
}

func TestVirtualWaiterTimeout(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	w := v.NewWaiter()
	start := v.NowTicks()
	if w.Wait(5 * time.Millisecond) {
		t.Fatal("Wait with no Wake reported woken")
	}
	if got := v.NowTicks() - start; got != 5e6 {
		t.Fatalf("timeout advanced %v ticks, want 5ms", got)
	}
}

func TestVirtualWakeWhileParked(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	w := v.NewWaiter()
	var woken, timedOut bool
	v.Go(func() {
		woken = w.Wait(time.Hour)
		// The superseded hour timer must not resurrect the waiter: a
		// second bounded wait must time out at its own deadline.
		timedOut = !w.Wait(time.Millisecond)
	})
	v.Sleep(time.Millisecond) // let the task park
	w.Wake()
	v.Sleep(2 * time.Millisecond)
	v.Release()
	if !woken {
		t.Fatal("parked waiter not woken")
	}
	if !timedOut {
		t.Fatal("re-parked waiter did not time out on its own deadline")
	}
	if got := v.NowTicks(); got != 3e6 {
		t.Fatalf("clock at %v, want 3ms (the hour timer must be discarded)", got)
	}
	if n := v.timers.Len(); n != 0 {
		t.Fatalf("%d heap entries left: a wait that ends early must take its deadline with it", n)
	}
}

// TestVirtualSleepSteadyStateAllocatesNothing is the budget for the
// campaign's most frequent clock call: once its waiter exists, a driver's
// Sleep reuses it, its embedded timer entry, and the ready and timer
// arrays.
func TestVirtualSleepSteadyStateAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	v.Sleep(time.Microsecond)
	if got := testing.AllocsPerRun(1000, func() { v.Sleep(time.Microsecond) }); got != 0 {
		t.Fatalf("Virtual.Sleep allocates %v objects per call in steady state, want 0", got)
	}
	if n := len(v.free); n != 1 {
		t.Fatalf("%d idle sleep waiters after one sleeper, want 1", n)
	}
}

// TestVirtualReadyQueueKeepsOrderAndStaysBounded runs a backlog that never
// empties — every task queues its successor before it ends — and checks
// that tasks still run first in, first out, and that the queue's array
// does not grow with the number of tasks that passed through it.
func TestVirtualReadyQueueKeepsOrderAndStaysBounded(t *testing.T) {
	const backlog, total = 50, 20000
	v := NewVirtual()
	v.Drive()
	next, ran := 0, 0
	var spawn func()
	spawn = func() {
		id := next
		next++
		v.Go(func() {
			if id != ran {
				t.Errorf("task %d ran in position %d", id, ran)
			}
			ran++
			if next < total {
				spawn()
			}
		})
	}
	for i := 0; i < backlog; i++ {
		spawn()
	}
	v.Sleep(time.Microsecond) // park the driver; the chain runs to its end
	v.Release()
	if ran != total {
		t.Fatalf("%d of %d tasks ran", ran, total)
	}
	if c := cap(v.ready); c > 8*backlog {
		t.Fatalf("ready queue capacity %d after a backlog of %d", c, backlog)
	}
}

func TestVirtualWakeFromUntrackedGoroutine(t *testing.T) {
	// A stop() called after the Drive window — e.g. the campaign tearing
	// down a daemon between experiments — wakes the parked task and lets
	// it run to completion with no driver present.
	v := NewVirtual()
	w := v.NewWaiter()
	done := false
	v.Drive()
	v.Go(func() {
		w.Wait(-1)
		done = true
	})
	v.Sleep(time.Millisecond) // park the task
	v.Release()
	w.Wake()  // untracked caller: this test goroutine
	v.Drive() // waits for quiescence, i.e. the task finishing
	defer v.Release()
	if !done {
		t.Fatal("task parked forever after untracked Wake")
	}
}

func TestVirtualQuiescenceGatesTimers(t *testing.T) {
	v := NewVirtual()
	var reached, finished bool
	v.Go(func() {
		reached = true
		v.Sleep(time.Millisecond)
		finished = true
	})
	v.Drive() // waits until the task has parked
	if !reached {
		t.Fatal("Go task did not run before Drive returned")
	}
	if finished {
		t.Fatal("task's timer fired with no driver")
	}
	v.Sleep(2 * time.Millisecond)
	v.Release()
	if !finished {
		t.Fatal("task's timer did not fire inside the Drive window")
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer func() {
		if recover() == nil {
			t.Fatal("unbounded Wait with no possible wake did not panic")
		}
	}()
	v.NewWaiter().Wait(-1)
}

// recoverDriver runs drive as a campaign worker runs an experiment —
// inside Drive with a deferred Release — and returns what it panicked
// with, failing the test if that takes longer than a few seconds.
func recoverDriver(t *testing.T, v *Virtual, drive func()) any {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		v.Drive()
		defer v.Release()
		drive()
	}()
	select {
	case p := <-got:
		return p
	case <-time.After(10 * time.Second):
		t.Fatal("the driver neither returned nor panicked within 10s: its deferred Release blocked")
		return nil
	}
}

// TestVirtualDeadlockPanicsUnderRelease: the deadlock diagnostic must
// reach the driver's caller past the deferred Release, whether the loop
// finds the deadlock on the driver's goroutine or inside a task's
// coroutine. Mutation: panic in next without releasing v.mu first; the
// deferred Release then blocks on it and the message is lost.
func TestVirtualDeadlockPanicsUnderRelease(t *testing.T) {
	for _, tc := range []struct {
		name string
		task func(v *Virtual)
	}{
		{"driver alone", nil},
		{"after a task parks", func(v *Virtual) { v.NewWaiter().Wait(-1) }},
		{"after a task returns", func(v *Virtual) {}},
	} {
		v := NewVirtual()
		p := recoverDriver(t, v, func() {
			if tc.task != nil {
				v.Go(func() { tc.task(v) })
			}
			v.NewWaiter().Wait(-1)
		})
		if msg, _ := p.(string); !strings.Contains(msg, "clock: virtual deadlock") {
			t.Errorf("%s: recovered %v, want the virtual deadlock diagnostic", tc.name, p)
		}
	}
}

func panickingTaskBody() { panic("boom") }

// TestVirtualTaskPanicCarriesItsStack: a task body's panic leaves its
// coroutine on the goroutine running the scheduler loop — here the parked
// driver — and must name the body's own stack, not only the loop's.
// Mutation: call fn directly in chain instead of through runBody; the
// panic then arrives as the bare "boom".
func TestVirtualTaskPanicCarriesItsStack(t *testing.T) {
	v := NewVirtual()
	p := recoverDriver(t, v, func() {
		v.Go(panickingTaskBody)
		v.Sleep(time.Millisecond)
	})
	if msg := fmt.Sprint(p); !strings.Contains(msg, "boom") || !strings.Contains(msg, "panickingTaskBody") {
		t.Fatalf("recovered %q, want the body's value and its stack", msg)
	}
}

// TestVirtualWakePingPongAllocatesNothing: the driver and a task hand
// control back and forth through two waiters — the hand-off behind every
// message an experiment delivers — without allocating, because the parked
// driver runs the scheduler loop itself and switches straight to the
// task's coroutine. Mutation: park the driver by starting a loop goroutine
// (go v.serve()) and waiting on its channel; every round then allocates.
func TestVirtualWakePingPongAllocatesNothing(t *testing.T) {
	const runs = 1000
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	ping, pong := v.NewWaiter(), v.NewWaiter()
	v.Go(func() {
		for i := 0; i < runs+2; i++ { // a warm-up round, AllocsPerRun's own, then runs
			ping.Wait(-1)
			pong.Wake()
		}
	})
	round := func() {
		ping.Wake()
		pong.Wait(-1)
	}
	round()
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Fatalf("a driver/task wake round trip allocates %v objects, want 0", got)
	}
}

// TestVirtualGoAllocatesNothing: starting a prebuilt task body takes an
// idle coroutine from the pool — no goroutine, no closure. Mutation: build
// a fresh coroutine in getCoro every time (or start each body on a
// goroutine of its own, as the clock once did); each start then allocates.
func TestVirtualGoAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	ran := 0
	body := func() { ran++ }
	start := func() {
		v.Go(body)
		v.Sleep(time.Microsecond)
	}
	start()
	if got := testing.AllocsPerRun(1000, start); got != 0 {
		t.Fatalf("Go of a prebuilt body allocates %v objects, want 0", got)
	}
	if ran != 1002 {
		t.Fatalf("%d of 1002 bodies ran", ran)
	}
}

// TestVirtualIdleCoroutinesBounded: 200 clocks each park twice as many
// tasks at once as the pool keeps; once they have all finished, at most
// maxIdleCoros of their coroutines are left, however many clocks ran.
// Mutation: drop the cap in putCoro; 2*maxIdleCoros idle coroutines stay.
func TestVirtualIdleCoroutinesBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		v := NewVirtual()
		v.Drive()
		for j := 0; j < 2*maxIdleCoros; j++ {
			v.Go(func() { v.Sleep(time.Microsecond) })
		}
		v.Sleep(time.Millisecond)
		v.Release()
	}
	if n := runtime.NumGoroutine(); n > base+maxIdleCoros {
		t.Fatalf("%d goroutines after 200 clocks, want at most %d (%d before, plus %d idle coroutines)",
			n, base+maxIdleCoros, base, maxIdleCoros)
	}
}

func TestVirtualUntrackedWaitPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Wait from an untracked goroutine did not panic")
		}
	}()
	v.NewWaiter().Wait(time.Millisecond)
}

func TestSpinWaitVirtualIsExact(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	start := v.NowTicks()
	SpinWait(v, 20*time.Microsecond)
	if got := v.NowTicks() - start; got != 20_000 {
		t.Fatalf("SpinWait advanced %v ticks, want exactly 20µs", got)
	}
}

func TestSpinWaitRealSubMillisecond(t *testing.T) {
	start := time.Now()
	SpinWait(Real{}, 50*time.Microsecond)
	if got := time.Since(start); got < 50*time.Microsecond {
		t.Fatalf("SpinWait returned after %v, want >= 50µs", got)
	}
}

// TestVirtualReadsAllocateNothing: simulated time is read without a lock
// or an allocation, the unit cost of every timestamp a virtual testbed
// takes.
func TestVirtualReadsAllocateNothing(t *testing.T) {
	v := NewVirtual()
	if n := testing.AllocsPerRun(1000, func() { v.Now() }); n != 0 {
		t.Fatalf("Virtual.Now allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { v.NowTicks() }); n != 0 {
		t.Fatalf("Virtual.NowTicks allocates %v objects, want 0", n)
	}
}

// TestVirtualLockFreeReadsNeverDecrease: goroutines the scheduler does not
// know read simulated time while a driver advances it through timers and
// sleeps. Their readings never go backwards, and under -race the unlocked
// reads are checked against the writes next makes under the lock.
func TestVirtualLockFreeReadsNeverDecrease(t *testing.T) {
	const readers, steps = 4, 2000
	v := NewVirtual()
	var stop atomic.Bool
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var last vclock.Ticks
			lastAt := v.Now()
			for !stop.Load() {
				now, at := v.NowTicks(), v.Now()
				if now < last || at.Before(lastAt) {
					errs <- fmt.Errorf("simulated time went backwards: %d -> %d, %v -> %v", last, now, lastAt, at)
					return
				}
				last, lastAt = now, at
			}
			errs <- nil
		}()
	}
	v.Drive()
	fired := 0
	for i := 0; i < steps; i++ {
		v.AfterFunc(time.Duration(i%3)*time.Microsecond, func() { fired++ })
		v.Sleep(time.Microsecond)
	}
	v.Release()
	stop.Store(true)
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if fired != steps || v.NowTicks() != steps*1e3 {
		t.Fatalf("fired %d of %d timers, clock at %d", fired, steps, v.NowTicks())
	}
}

// TestRealTicksMonotonic: the wall clock's ticks, the host clocks' time
// base on a real-time testbed, never decrease.
func TestRealTicksMonotonic(t *testing.T) {
	var r Real
	prev := r.NowTicks()
	for i := 0; i < 1000; i++ {
		now := r.NowTicks()
		if now < prev {
			t.Fatalf("Real ticks went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

// TestRealWaiterReusesItsTimer: after its first timed Wait a real waiter
// waits on the same timer, so a timed Wait, woken or not, allocates
// nothing; and a deadline stopped by a Wake does not end a later Wait
// early.
func TestRealWaiterReusesItsTimer(t *testing.T) {
	w := Real{}.NewWaiter()
	if w.Wait(time.Microsecond) {
		t.Fatal("a timed Wait with no Wake reported a wake")
	}
	n := testing.AllocsPerRun(100, func() {
		if w.Wait(time.Microsecond) {
			t.Fatal("a timed Wait with no Wake reported a wake")
		}
		w.Wake()
		if !w.Wait(time.Hour) {
			t.Fatal("a timed Wait after a Wake timed out")
		}
	})
	if n != 0 {
		t.Fatalf("a timed Wait allocates %v objects after the first, want 0", n)
	}
	w.Wake()
	if !w.Wait(time.Millisecond) {
		t.Fatal("a timed Wait after a Wake timed out")
	}
	time.Sleep(2 * time.Millisecond) // past the stopped deadline
	const d = 20 * time.Millisecond
	start := time.Now()
	if w.Wait(d) {
		t.Fatal("a timed Wait with no Wake reported a wake")
	}
	if got := time.Since(start); got < d {
		t.Fatalf("a timed Wait returned after %v, before its %v deadline", got, d)
	}
}

// TestVirtualRewindRefusesATaskInUse: Rewind panics while a task runs or
// is ready (a driver's window, with a Go body queued behind it) and while
// one is parked (a task asleep between windows); the clock is still usable
// after each refusal.
func TestVirtualRewindRefusesATaskInUse(t *testing.T) {
	refused := func(what string, v *Virtual) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "clock: Rewind of a virtual clock in use") {
				t.Errorf("Rewind with %s: recovered %q, want the in-use diagnostic", what, msg)
			}
		}()
		v.Rewind()
	}
	v := NewVirtual()
	v.Drive()
	ran := false
	v.Go(func() { ran = true })
	refused("a driver running and a task ready", v)
	v.Release()
	if !ran {
		t.Fatal("the ready task did not run after the refused Rewind")
	}

	v.Go(func() { v.Sleep(time.Second) })
	v.Drive() // waits until the task has parked
	v.Release()
	refused("a task parked", v)
	v.Drive()
	v.Sleep(2 * time.Second)
	v.Release()
	v.Rewind()
}

// TestVirtualRewindRestartsTimeAtZero: after a window that advanced time
// and left a timer pending, a rewound clock reads zero, drops the pending
// timer, and fires new timers at their deadlines counted from zero, equal
// deadlines in creation order, as a fresh clock does.
func TestVirtualRewindRestartsTimeAtZero(t *testing.T) {
	var order []string
	note := func(v *Virtual, id string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", id, v.NowTicks().Duration())) }
	}
	run := func(v *Virtual) []string {
		order = nil
		v.AfterFunc(2*time.Millisecond, note(v, "a"))
		v.AfterFunc(time.Millisecond, note(v, "b"))
		v.AfterFunc(2*time.Millisecond, note(v, "c"))
		v.Drive()
		v.Sleep(3 * time.Millisecond)
		v.Release()
		return order
	}
	want := run(NewVirtual())

	v := NewVirtual()
	v.Drive()
	v.Sleep(5 * time.Millisecond)
	v.AfterFunc(time.Hour, note(v, "stale"))
	v.Release()
	v.Rewind()
	if now := v.NowTicks(); now != 0 {
		t.Fatalf("a rewound clock reads %v, want 0", now.Duration())
	}
	if got := run(v); !slices.Equal(got, want) {
		t.Fatalf("a rewound clock fired %v, a fresh one %v", got, want)
	}
	v.Drive()
	v.Sleep(2 * time.Hour)
	v.Release()
	if len(order) != len(want) {
		t.Fatalf("the timer pending at the rewind fired afterwards: %v", order)
	}
}

// TestVirtualRewindAllocatesNothing: once warm, a cycle of windows that
// schedules a timer, sleeps and waits on a waiter NewWaiter made before
// the first rewind, then rewinds with a timer pending, allocates nothing:
// the rewind keeps the sleepers' pool and puts its pending entries on the
// fired list. Mutation: drop the pending entries instead of listing them
// as fired; every cycle then allocates one.
func TestVirtualRewindAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	w := v.NewWaiter()
	body := func() {}
	cycle := func() {
		v.Drive()
		v.AfterFunc(time.Microsecond, body)
		v.Sleep(2 * time.Microsecond)
		w.Wait(time.Microsecond)
		v.AfterFunc(time.Hour, body)
		v.Release()
		v.Rewind()
	}
	cycle()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("a window and a rewind allocate %v objects once warm, want 0", got)
	}
}
