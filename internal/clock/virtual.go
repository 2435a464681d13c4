package clock

import (
	"container/heap"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"sync/atomic"
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
// it is the driver between Drive and Release; task bodies started through
// Go or AfterFunc are known because the scheduler runs them itself.
// Tracked tasks must block exclusively through Sleep or Waiter.Wait;
// blocking on a bare channel or mutex held across a wait would stall the
// clock (a Wait from an untracked goroutine panics, to catch the mistake
// early).
//
// Task bodies run on coroutines, not on goroutines of their own, and
// control passes from task to task by a direct coroutine switch. The
// scheduler loop runs on whichever goroutine parks: a parked driver runs
// it until its own waiter is picked, a body that parks yields back to
// that loop, and a body that returns starts the next picked body on the
// same coroutine. Idle coroutines are pooled process-wide, so a task
// start costs neither a goroutine nor an allocation. A body must not call
// runtime.Goexit; nothing in this repository does.
//
// Timers fire only while a driver is inside a Drive/Release window. This
// scopes time advancement to the experiment being driven: housekeeping
// tasks parked on periodic timers (a watchdog, a supervisor poll) do not
// spin simulated time forward between experiments.
type Virtual struct {
	// now is simulated time, in vclock.Ticks. Only next writes it, under
	// mu; readers take no lock. Time moves only when no task runs, so a
	// task never sees it move under its feet.
	now atomic.Int64

	mu      sync.Mutex
	seq     uint64
	timers  timerHeap
	ready   []readyItem   // woken waiters and Go tasks, FIFO from head
	head    int           // index of the next ready item; ready[:head] is spent
	free    []*vWaiter    // idle Sleep waiters; at most one per concurrent sleeper
	fired   []*timerEntry // fired AfterFunc entries, bodies cleared; at most one per concurrent timer
	busy    int           // tracked tasks currently running (0 or 1 after startup)
	parked  int           // tracked tasks blocked in Sleep/Wait
	driving int           // Drive/Release nesting; timers fire only when > 0
	idle    chan struct{}
	cur     *coro // the coroutine of the running task; nil when none runs or a driver does

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

// Rewind takes an idle clock back to time zero, where NewVirtual positions
// a clock, keeping its pools and its activity counters: a testbed that
// outlives its study or matrix point runs the next one on the time base a
// fresh testbed would. Pending AfterFunc entries are dropped, bodies
// cleared, onto the fired list for reuse, and new timers are sequenced from
// zero again. A task running, ready or parked panics: its deadline or its
// next timestamp would be measured from a time that no longer exists.
func (v *Virtual) Rewind() {
	v.mu.Lock()
	if v.busy > 0 || v.head < len(v.ready) || v.parked > 0 {
		msg := fmt.Sprintf("clock: Rewind of a virtual clock in use: %d task(s) running, %d ready, %d parked",
			v.busy, len(v.ready)-v.head, v.parked)
		v.mu.Unlock()
		panic(msg)
	}
	for i, e := range v.timers {
		e.fn, e.index = nil, -1
		v.fired = append(v.fired, e)
		v.timers[i] = nil
	}
	v.timers = v.timers[:0]
	v.seq = 0
	v.now.Store(0)
	v.mu.Unlock()
}

type readyItem struct {
	w  *vWaiter
	fn func()
}

// timerEntry is one pending deadline. An entry is in the heap exactly
// while it is pending (index >= 0): firing pops it and a waiter's wake
// removes it by index, so next never meets a dead entry. A sleeper's entry
// is part of its waiter. An AfterFunc entry goes, once fired, onto the
// clock's fired list with its body cleared, so the list keeps no closure
// alive, and the next AfterFunc takes it from there before allocating.
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
func (v *Virtual) Now() time.Time { return virtualEpoch.Add(time.Duration(v.now.Load())) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// NowTicks implements Clock: the current simulated time.
func (v *Virtual) NowTicks() vclock.Ticks { return vclock.Ticks(v.now.Load()) }

// Source returns v, which is its own vclock.Source.
func (v *Virtual) Source() vclock.Source { return v }

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

// AfterFunc implements Clock. The body runs as a tracked task, on a
// scheduler coroutine, when the deadline is reached (and a driver is
// active).
func (v *Virtual) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	var e *timerEntry
	if n := len(v.fired); n > 0 {
		e, v.fired = v.fired[n-1], v.fired[:n-1]
	} else {
		e = new(timerEntry)
	}
	e.at, e.seq, e.fn = v.NowTicks()+vclock.Ticks(d), v.seq, fn
	v.seq++
	heap.Push(&v.timers, e)
	v.mu.Unlock()
}

// Go implements Clock: fn is queued as an immediately runnable tracked
// task, to run on a scheduler coroutine. Unlike a timer it is not gated
// on Drive — a task spawned ready runs at the current simulated time as
// soon as the scheduler is free.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.ready = append(v.ready, readyItem{fn: fn})
	v.kick()
	v.mu.Unlock()
}

// kick, with v.mu held, starts a loop goroutine for newly ready work when
// the clock is idle. Only an untracked caller finds it idle, and it may
// hold locks of its own (core.wakeWaiters wakes under one), so the work
// must not run inline. The loop goroutine counts as busy until it runs,
// so a second untracked caller does not start another.
func (v *Virtual) kick() {
	if v.busy == 0 {
		v.busy++
		go v.serve()
	}
}

// serve is the loop goroutine kick starts.
func (v *Virtual) serve() {
	v.mu.Lock()
	v.busy--
	v.run(nil)
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

// Release ends a Drive window: ready tasks left over run inline, until
// they finish or park; timers stop firing once no driver remains.
func (v *Virtual) Release() {
	v.mu.Lock()
	v.driving--
	v.busy--
	v.run(nil)
	v.mu.Unlock()
}

// run is the scheduler loop. It is entered with v.mu held, on a goroutine
// that is not a coroutine: a parked driver (self is its waiter), a loop
// goroutine or Release (self is nil). It starts each picked body on a
// pooled coroutine and resumes each picked coroutine task, switching to
// it with v.mu held across the switch; the coroutine switches back when
// its task parks or its chain of bodies ends. run returns true when self
// is picked, false when nothing can run or a parked goroutine was resumed
// through its channel (that goroutine runs the loop from then on).
func (v *Virtual) run(self *vWaiter) bool {
	fn, w := v.next()
	for {
		var c *coro
		switch {
		case fn != nil:
			c = getCoro()
			c.v, c.fn = v, fn
		case w == nil:
			return false
		case w == self:
			return true
		case w.co != nil:
			c, w.co = w.co, nil
		default:
			w.resume <- struct{}{}
			return false
		}
		fn, w = v.switchTo(c)
	}
}

// switchTo runs c, with v.mu held, until it switches back, and returns
// the loop's next pick. A coroutine goes back to the pool only here,
// after it has switched out: pooled from inside its own chain, it could
// be resumed by another clock's loop before that switch.
func (v *Virtual) switchTo(c *coro) (fn func(), w *vWaiter) {
	v.cur = c
	c.resume()
	v.cur = nil
	if c.v != nil {
		return v.next() // c's task parked; its waiter keeps c
	}
	w, c.pick = c.pick, nil
	putCoro(c)
	return nil, w
}

// next, with v.mu held, picks the next runnable task: first the FIFO of
// woken waiters and Go bodies, then — inside a Drive window — the earliest
// pending timer, advancing simulated time to its deadline. The pick comes
// back already counted busy: a body to start (fn) or a parked waiter to
// resume (w). Neither means a task runs already or nothing can run. If a
// driver exists but nothing can ever run again, the virtual testbed is
// deadlocked (a goroutine blocked outside the clock's view) and next
// panics rather than hang silently — after releasing v.mu, so that the
// driver's deferred Release cannot block on it and swallow the message.
func (v *Virtual) next() (fn func(), w *vWaiter) {
	if v.busy > 0 {
		return nil, nil
	}
	if v.head < len(v.ready) {
		it := v.popReady()
		v.busy++
		if it.fn != nil {
			v.tasks++
			return it.fn, nil
		}
		w := it.w
		if w.timer.index >= 0 {
			heap.Remove(&v.timers, w.timer.index) // the wait ended before its deadline
		}
		w.queued = false
		w.parked = false
		v.parked--
		w.byWake = true
		return nil, w
	}
	if v.driving > 0 {
		if v.timers.Len() > 0 {
			e := heap.Pop(&v.timers).(*timerEntry)
			if e.at > v.NowTicks() {
				v.now.Store(int64(e.at))
			}
			v.busy++
			v.firedTimers++
			if fn := e.fn; fn != nil {
				e.fn = nil
				v.fired = append(v.fired, e)
				v.tasks++
				return fn, nil
			}
			w := e.w
			w.parked = false
			v.parked--
			w.byWake = false
			return nil, w
		}
		if v.parked > 0 {
			msg := fmt.Sprintf(
				"clock: virtual deadlock: %d task(s) parked, no runnable task or pending timer (driving=%d, now=%v)",
				v.parked, v.driving, v.NowTicks().Duration())
			v.mu.Unlock()
			panic(msg)
		}
	}
	if v.idle != nil {
		close(v.idle)
		v.idle = nil
	}
	return nil, nil
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

// coro is a coroutine that runs tracked task bodies. It is idle in the
// pool, running a chain of bodies for one clock, or parked with the task
// whose waiter holds it.
type coro struct {
	resume func() (struct{}, bool) // switch in; returns when the coroutine switches out
	stop   func()                  // end an idle coroutine
	yield  func(struct{}) bool     // switch out, back to the loop that resumed it
	v      *Virtual                // the clock it runs for; nil once its chain ended
	fn     func()                  // the body its next chain starts with
	pick   *vWaiter                // the waiter next picked as the chain ended, for the loop
}

// maxIdleCoros caps the idle coroutines kept for reuse. The pool is
// process-wide, so a coroutine and its grown stack serve every clock's
// tasks across experiments and runtimes, and no clock needs closing. It
// is not a sync.Pool: a coroutine the pool dropped without stopping it
// would leak its goroutine.
const maxIdleCoros = 64

var coroPool struct {
	sync.Mutex
	idle []*coro
}

func getCoro() *coro {
	coroPool.Lock()
	if n := len(coroPool.idle); n > 0 {
		c := coroPool.idle[n-1]
		coroPool.idle[n-1] = nil
		coroPool.idle = coroPool.idle[:n-1]
		coroPool.Unlock()
		return c
	}
	coroPool.Unlock()
	c := new(coro)
	c.resume, c.stop = iter.Pull(c.main)
	return c
}

// putCoro pools an idle coroutine, or ends it when the pool is full.
func putCoro(c *coro) {
	coroPool.Lock()
	if len(coroPool.idle) < maxIdleCoros {
		coroPool.idle = append(coroPool.idle, c)
		coroPool.Unlock()
		return
	}
	coroPool.Unlock()
	c.stop()
}

// main is the coroutine's body: one chain per resume from the pool.
func (c *coro) main(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.chain()
		if !yield(struct{}{}) {
			return
		}
	}
}

// chain runs c.fn and then, as long as the next pick is another body,
// that body, all on this coroutine; the first pick that is not a body is
// left in c.pick for the loop. c.v.mu is held on entry and on return, and
// released while a body runs.
func (c *coro) chain() {
	v, fn := c.v, c.fn
	c.fn = nil
	for fn != nil {
		v.mu.Unlock()
		runBody(fn)
		v.mu.Lock()
		v.busy--
		fn, c.pick = v.next()
	}
	c.v = nil
}

// runBody runs one task body. Its panic reaches the goroutine that runs
// the loop, whose stack the runtime would print; the body's own stack
// goes along in the panic value.
func runBody(fn func()) {
	defer func() {
		if p := recover(); p != nil {
			panic(&taskPanic{value: p, stack: debug.Stack()})
		}
	}()
	fn()
}

// taskPanic is a task body's panic value with the stack it panicked on.
type taskPanic struct {
	value any
	stack []byte
}

func (p *taskPanic) Error() string {
	return fmt.Sprintf("%v\n\npanicked in a virtual clock task:\n%s", p.value, p.stack)
}

// vWaiter is the virtual Waiter: parking decrements busy and hands
// control to the scheduler loop; Wake queues the waiter on the ready
// FIFO. The deadline of the current Wait is the embedded timer entry — a
// waiter parks at most once at a time, so one entry is all it ever needs.
type vWaiter struct {
	v      *Virtual
	resume chan struct{} // resumes a parked goroutine the loop does not run on
	co     *coro         // the coroutine of the task parked here, if any
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
		v.kick()
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
// has elapsed (false). v.mu is held on entry and on return. A task on a
// coroutine switches back to the loop that runs it; a driver runs the
// loop itself until its own waiter is picked, or, when the loop hands
// over to another goroutine, waits on its channel.
func (w *vWaiter) park(d time.Duration) bool {
	v := w.v
	if v.busy == 0 {
		v.mu.Unlock()
		panic("clock: Wait from a goroutine unknown to the virtual scheduler (spawn it with Clock.Go)")
	}
	if d > 0 {
		w.timer.at = v.NowTicks() + vclock.Ticks(d)
		w.timer.seq = v.seq
		v.seq++
		heap.Push(&v.timers, &w.timer)
	}
	w.parked = true
	v.parked++
	v.busy--
	if c := v.cur; c != nil {
		w.co = c
		c.yield(struct{}{})
	} else if !v.run(w) {
		v.mu.Unlock()
		<-w.resume
		v.mu.Lock()
	}
	return w.byWake
}

var _ Clock = (*Virtual)(nil)
