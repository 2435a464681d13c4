package clock

import (
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

func TestVirtualAfterFuncStop(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if n := v.timers.Len(); n != 0 {
		t.Fatalf("stopped timer left %d heap entries", n)
	}
	v.Sleep(2 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm = v.AfterFunc(time.Millisecond, func() { fired = true })
	v.Sleep(2 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
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
