package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// virtualEpoch anchors Virtual.Now's time.Time values. It is a fixed
// constant — not process start — so virtual timestamps are identical
// across runs, which is what makes journal records byte-reproducible.
var virtualEpoch = time.Unix(0, 0).UTC()

// Virtual is a virtual-time scheduler implementing Clock. It serializes
// every tracked task (at most one runs at a time) and advances simulated
// time to the earliest pending timer only when all tasks are blocked — so
// a campaign dominated by Sleep and timeout waits runs as fast as the CPU
// can execute its non-waiting work, with timing geometry preserved
// exactly.
//
// Tracking is cooperative: a goroutine is known to the scheduler only if
// it was spawned through Go or AfterFunc, or is the driver between Drive
// and Release. Tracked goroutines must block exclusively through Sleep or
// Waiter.Wait; blocking on a bare channel or mutex held across a wait
// would stall the clock (a Wait from an untracked goroutine panics, to
// catch the mistake early).
//
// Timers fire only while a driver is inside a Drive/Release window. This
// scopes time advancement to the experiment being driven: housekeeping
// tasks parked on periodic timers (a watchdog, a supervisor poll) do not
// spin simulated time forward between experiments.
type Virtual struct {
	mu      sync.Mutex
	now     vclock.Ticks
	seq     uint64
	timers  timerHeap
	ready   []readyItem // woken waiters and Go tasks, FIFO from head
	head    int         // index of the next ready item; ready[:head] is spent
	free    []*vWaiter  // idle Sleep waiters; at most one per concurrent sleeper
	busy    int         // tracked tasks currently running (0 or 1 after startup)
	parked  int         // tracked tasks blocked in Sleep/Wait
	driving int         // Drive/Release nesting; timers fire only when > 0
	idle    chan struct{}

	// Activity counters for observability (read via Stats). Plain fields
	// under mu, kept here rather than in internal/obs so the clock stays
	// dependency-free; campaigns export deltas into their metrics registry.
	firedTimers uint64 // timer deadlines reached and dispatched
	tasks       uint64 // tracked tasks started via Go/AfterFunc bodies
}

// VirtualStats is a snapshot of a virtual scheduler's activity.
type VirtualStats struct {
	// FiredTimers counts timer deadlines dispatched (AfterFunc bodies and
	// Sleep/Wait deadline wakeups).
	FiredTimers uint64
	// Tasks counts tracked task bodies started (Go spawns and fired
	// AfterFunc bodies).
	Tasks uint64
}

// Stats returns cumulative scheduler activity counters.
func (v *Virtual) Stats() VirtualStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return VirtualStats{FiredTimers: v.firedTimers, Tasks: v.tasks}
}

// NewVirtual returns a virtual clock positioned at time zero.
func NewVirtual() *Virtual { return &Virtual{} }

type readyItem struct {
	w  *vWaiter
	fn func()
}

// timerEntry is one pending deadline. An entry is in the heap exactly
// while it is pending (index >= 0): firing pops it, Stop and a waiter's
// wake remove it by index, so dispatch never meets a dead entry.
type timerEntry struct {
	at    vclock.Ticks
	seq   uint64
	fn    func()   // AfterFunc body; nil for sleeper entries
	w     *vWaiter // sleeping waiter; nil for AfterFunc entries
	index int      // position in the heap, -1 when not in it
}

// timerHeap orders entries by (due time, creation sequence) so equal
// deadlines fire in creation order — deterministic across runs.
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x interface{}) {
	e := x.(*timerEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.index = -1
	return e
}

// Now implements Clock. Simulated time is frozen while a task runs, so
// every timestamp a task takes is deterministic.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return virtualEpoch.Add(time.Duration(v.now))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// NowTicks returns the current simulated time (for tests and the Source
// adapter).
func (v *Virtual) NowTicks() vclock.Ticks {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Source returns the scheduler's simulated time as a vclock.Source, so
// the testbed's hidden-error host clocks derive from virtual time.
func (v *Virtual) Source() vclock.Source { return virtualSource{v} }

type virtualSource struct{ v *Virtual }

func (s virtualSource) Now() vclock.Ticks { return s.v.NowTicks() }

// Sleep implements Clock: the calling task blocks and resumes exactly d
// later in simulated time, regardless of what other timers fire meanwhile.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	// The waiter never escapes this call, so nothing can wake it but its
	// own deadline: it comes back from park idle and is reused as it is.
	v.mu.Lock()
	var w *vWaiter
	if n := len(v.free); n > 0 {
		w, v.free = v.free[n-1], v.free[:n-1]
	} else {
		w = v.newWaiter()
	}
	w.park(d)
	v.free = append(v.free, w)
	v.mu.Unlock()
}

// AfterFunc implements Clock. The body runs as a tracked task when the
// deadline is reached (and a driver is active).
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	e := &timerEntry{at: v.now + vclock.Ticks(d), seq: v.seq, fn: fn}
	v.seq++
	heap.Push(&v.timers, e)
	v.mu.Unlock()
	return &virtualTimer{v: v, e: e}
}

type virtualTimer struct {
	v *Virtual
	e *timerEntry
}

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.e.index < 0 {
		return false // already fired or stopped
	}
	heap.Remove(&t.v.timers, t.e.index)
	return true
}

// Go implements Clock: fn is queued as an immediately runnable tracked
// task. Unlike a timer it is not gated on Drive — a task spawned ready
// runs at the current simulated time as soon as the scheduler is free.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.ready = append(v.ready, readyItem{fn: fn})
	if v.busy == 0 {
		v.dispatch()
	}
	v.mu.Unlock()
}

// NewWaiter implements Clock.
func (v *Virtual) NewWaiter() Waiter { return v.newWaiter() }

func (v *Virtual) newWaiter() *vWaiter {
	w := &vWaiter{v: v, resume: make(chan struct{}, 1)}
	w.timer.w = w
	w.timer.index = -1
	return w
}

// Drive marks the calling goroutine a tracked task and enables timer
// firing until the matching Release. A campaign worker wraps each
// experiment's runtime phase in Drive/Release: within the window the
// worker must block only through this clock. Drive first waits for the
// scheduler to go quiescent, so leftover tasks from a previous window
// finish or park before the new experiment starts — keeping execution
// strictly serialized, and therefore deterministic.
func (v *Virtual) Drive() {
	v.mu.Lock()
	for v.busy > 0 || v.head < len(v.ready) {
		if v.idle == nil {
			v.idle = make(chan struct{})
		}
		ch := v.idle
		v.mu.Unlock()
		<-ch
		v.mu.Lock()
	}
	v.driving++
	v.busy++
	v.mu.Unlock()
}

// Release ends a Drive window. Pending ready tasks are dispatched; timers
// stop firing once no driver remains.
func (v *Virtual) Release() {
	v.mu.Lock()
	v.driving--
	v.busy--
	v.dispatch()
	v.mu.Unlock()
}

// runTask executes one tracked task body on its own goroutine.
func (v *Virtual) runTask(fn func()) {
	defer func() {
		v.mu.Lock()
		v.busy--
		v.dispatch()
		v.mu.Unlock()
	}()
	fn()
}

// dispatch, with v.mu held and no task running, starts the next runnable
// task: first the FIFO of woken waiters and Go bodies, then — inside a
// Drive window — the earliest pending timer, advancing simulated time to
// its deadline. If a driver exists but nothing can ever run again, the
// virtual testbed is deadlocked (a goroutine blocked outside the clock's
// view) and dispatch panics rather than hang silently.
func (v *Virtual) dispatch() {
	if v.busy > 0 {
		return
	}
	if v.head < len(v.ready) {
		it := v.popReady()
		v.busy++
		if it.fn != nil {
			v.tasks++
			go v.runTask(it.fn)
			return
		}
		w := it.w
		if w.timer.index >= 0 {
			heap.Remove(&v.timers, w.timer.index) // the wait ended before its deadline
		}
		w.queued = false
		w.parked = false
		v.parked--
		w.byWake = true
		w.resume <- struct{}{}
		return
	}
	if v.driving > 0 {
		if v.timers.Len() > 0 {
			e := heap.Pop(&v.timers).(*timerEntry)
			if e.at > v.now {
				v.now = e.at
			}
			v.busy++
			v.firedTimers++
			if e.fn != nil {
				v.tasks++
				go v.runTask(e.fn)
				return
			}
			w := e.w
			w.parked = false
			v.parked--
			w.byWake = false
			w.resume <- struct{}{}
			return
		}
		if v.parked > 0 {
			panic(fmt.Sprintf(
				"clock: virtual deadlock: %d task(s) parked, no runnable task or pending timer (driving=%d, now=%v)",
				v.parked, v.driving, time.Duration(v.now)))
		}
	}
	if v.idle != nil {
		close(v.idle)
		v.idle = nil
	}
}

// popReady takes the next item off the FIFO. It pops by index and rewinds
// when the queue empties: slicing the front off would give the array's
// capacity away and make every later append grow it again. A queue that
// never empties slides its backlog down once the spent prefix is the
// longer part, so the array stays within twice the longest backlog.
func (v *Virtual) popReady() readyItem {
	it := v.ready[v.head]
	v.ready[v.head] = readyItem{}
	v.head++
	if live := len(v.ready) - v.head; v.head > live {
		copy(v.ready, v.ready[v.head:])
		clear(v.ready[live:])
		v.ready, v.head = v.ready[:live], 0
	}
	return it
}

// vWaiter is the virtual Waiter: parking decrements busy and hands
// control to dispatch; Wake queues the waiter on the ready FIFO. The
// deadline of the current Wait is the embedded timer entry — a waiter
// parks at most once at a time, so one entry is all it ever needs.
type vWaiter struct {
	v      *Virtual
	resume chan struct{}
	timer  timerEntry
	parked bool
	queued bool // parked and already on the ready FIFO
	woken  bool // sticky wake while not parked
	byWake bool // why the pending resume happened
}

func (w *vWaiter) Wake() {
	v := w.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if w.woken || w.queued {
		return // coalesce
	}
	if w.parked {
		w.queued = true
		v.ready = append(v.ready, readyItem{w: w})
		if v.busy == 0 {
			v.dispatch()
		}
		return
	}
	w.woken = true
}

func (w *vWaiter) Wait(d time.Duration) bool {
	v := w.v
	v.mu.Lock()
	if w.woken {
		w.woken = false
		v.mu.Unlock()
		return true
	}
	if d == 0 {
		v.mu.Unlock()
		return false
	}
	byWake := w.park(d)
	v.mu.Unlock()
	return byWake
}

// park blocks the calling task until Wake (true) or, when d > 0, until d
// has elapsed (false). v.mu is held on entry and on return, and released
// while blocked.
func (w *vWaiter) park(d time.Duration) bool {
	v := w.v
	if v.busy == 0 {
		v.mu.Unlock()
		panic("clock: Wait from a goroutine unknown to the virtual scheduler (spawn it with Clock.Go)")
	}
	if d > 0 {
		w.timer.at = v.now + vclock.Ticks(d)
		w.timer.seq = v.seq
		v.seq++
		heap.Push(&v.timers, &w.timer)
	}
	w.parked = true
	v.parked++
	v.busy--
	v.dispatch()
	v.mu.Unlock()
	<-w.resume
	v.mu.Lock()
	return w.byWake
}

var _ Clock = (*Virtual)(nil)
