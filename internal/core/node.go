package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// App is the instrumented application of one node — the thesis's appMain
// plus the probe's fault injection entry point (§3.5.7).
type App interface {
	// Main is the application body (the renamed main()). It runs as a
	// task of the runtime clock (its own goroutine in real time, a
	// scheduler coroutine under virtual time) and must return promptly
	// once Handle.Done() closes.
	Main(h *Handle)
	// InjectFault performs the actual fault injection when the fault
	// parser demands it, and is free to do anything: corrupt app state,
	// call h.Crash(), drop messages. It runs on the runtime's dispatch
	// goroutines, concurrently with Main.
	InjectFault(h *Handle, fault string)
}

// stateNote is a state-change notification between state machines.
type stateNote struct {
	From  string
	State string
}

// Node is one basic component of the system under study together with its
// attached Loki runtime (§2.2.2): state machine, transport, fault parser,
// recorder, and probe handle. A Node is one start of a registered
// definition; the recorder, fault parser, view and waiters it works with
// belong to the registration and outlive it (registration).
type Node struct {
	rt        *Runtime
	reg       *registration
	host      *hostState
	handle    Handle
	restarted bool

	state string // current local state ("" until initialized); under reg.mu

	// lifeMu serializes terminal transitions (exit/crash/kill) with their
	// timeline records, so that a finished node's timeline is complete and
	// safely readable once the runtime reports completion. lifecycle is an
	// atomic mirror for lock-free status checks.
	lifeMu    sync.Mutex
	lifecycle int32 // 0 running, 1 exited, 2 crashed, 3 killed
	done      chan struct{}
	lastAlive atomic.Int64 // physical ticks of last activity, for the watchdog
}

// registration is a registered NodeDef together with the scaffolding
// every start of it reuses, built once per runtime and kept by
// Runtime.Rebind while its Spec and Faults stay: the timeline header
// and the recorder, fault parser (trigger set), partial view and idle
// waiters, which StartNode resets. A nickname runs at most one node at a
// time, so one set serves every start — including a restart within an
// experiment, whose predecessor has finished: its event and notification
// paths check under mu that they are still the current start before
// touching the view or the triggers.
type registration struct {
	NodeDef
	// header is the timeline header lists, shared by every timeline of
	// this definition and never mutated (Hosts, which grows per timeline,
	// is left out). entries is the length of the last experiment's
	// timeline: the capacity of the next one's fresh Entries, unless it
	// records into spare, a timeline handed back (RecycleTimelines).
	header  timeline.Meta
	entries int
	spare   *timeline.Local
	// bound is the Runtime.Rebind call that last kept this registration,
	// and slot the index of the definition it was kept for.
	bound uint64
	slot  int

	recorder timeline.Recorder
	// mu guards the current node's state, view and triggers.
	mu       sync.Mutex
	view     *stateView
	triggers *faultexpr.TriggerSet
	// node is the current start; main, bound once, runs its application.
	node *Node
	main func()
	// peers is StartNode's scratch list of the nodes to seed the view from.
	peers []*Node
	// live is Handle.Broadcast's scratch list of live nicknames. A
	// broadcast holds it while broadcasting is set; another goroutine of
	// the node broadcasting meanwhile makes a list of its own.
	live         []string
	broadcasting atomic.Bool

	// waiters are the goroutines blocked in Handle.Sleep/WaitMessage on
	// the node, woken on message delivery and on every terminal
	// transition. A slice, not a map: wake order must be deterministic
	// under virtual time. idleWaiters are the ones no goroutine holds at
	// the moment, kept for the next Sleep/WaitMessage. wmu is held across
	// Wake (a Waiter's Wake never blocks and never calls back), so it
	// orders before the clock's own lock.
	wmu         sync.Mutex
	waiters     []clock.Waiter
	idleWaiters []clock.Waiter
}

func newRegistration(def NodeDef) *registration {
	reg := &registration{
		NodeDef:  def,
		header:   newHeader(&def),
		view:     newStateView(),
		triggers: faultexpr.NewTriggerSet(def.Faults),
	}
	reg.main = reg.runMain
	return reg
}

// Lifecycle outcomes.
const (
	lcRunning int32 = iota
	lcExited
	lcCrashed
	lcKilled
)

// newNode starts reg's scaffolding over local for a fresh node on hs.
func newNode(r *Runtime, reg *registration, hs *hostState, local *timeline.Local, restarted bool) *Node {
	n := &Node{
		rt:        r,
		reg:       reg,
		host:      hs,
		restarted: restarted,
		done:      make(chan struct{}),
	}
	n.handle.node = n
	n.lastAlive.Store(int64(r.source.NowTicks()))
	reg.mu.Lock()
	reg.view.reset()
	reg.triggers.Reset()
	reg.node = n
	reg.mu.Unlock()
	reg.recorder.Start(local, hs.host.Name, hs.host.Clock)
	if restarted {
		reg.recorder.RecordNote("restart on host " + hs.host.Name)
	}
	return n
}

// Nickname returns the node's state machine nickname.
func (n *Node) Nickname() string { return n.reg.Nickname }

// Host returns the host the node runs on.
func (n *Node) Host() string { return n.host.host.Name }

// Restarted reports whether this node resumed an earlier timeline.
func (n *Node) Restarted() bool { return n.restarted }

// Handle returns the probe handle (for tests; the app receives it in Main).
func (n *Node) Handle() *Handle { return &n.handle }

// CurrentState returns the node's local state, if initialized.
func (n *Node) CurrentState() (string, bool) {
	n.reg.mu.Lock()
	defer n.reg.mu.Unlock()
	return n.state, n.state != ""
}

// seedView installs the initial partial view from the states of the
// given live machines (§3.6.3 state updates).
func (n *Node) seedView(peers []*Node) {
	for _, p := range peers {
		if s, ok := p.CurrentState(); ok {
			n.reg.mu.Lock()
			n.reg.view.set(p.Nickname(), s)
			n.reg.mu.Unlock()
		}
	}
}

// run starts the application goroutine (through the runtime clock, so the
// virtual scheduler tracks it).
func (n *Node) run() { n.rt.clk.Go(n.reg.main) }

// runMain is the application goroutine of the registration's current
// node, read once on entry: the next start of this nickname cannot happen
// before this node finishes, at the end of this call.
func (reg *registration) runMain() {
	n := reg.node
	defer func() {
		if rec := recover(); rec != nil {
			// An uncaught panic in the application is a process crash
			// with the default signal handler (§3.6.2).
			n.rt.cfg.Logf("core: node %s panicked: %v", n.Nickname(), rec)
			n.crash()
		}
		n.finish()
	}()
	n.reg.App.Main(&n.handle)
}

// addWaiter registers the calling goroutine as blocked on this node's
// events and returns the waiter it blocks on, reusing an idle one when
// there is one. A reused waiter may carry a sticky wake from its last
// registration; callers loop and re-check their condition, so that is one
// spurious wake.
func (n *Node) addWaiter() clock.Waiter {
	reg := n.reg
	reg.wmu.Lock()
	defer reg.wmu.Unlock()
	var w clock.Waiter
	if k := len(reg.idleWaiters); k > 0 {
		w, reg.idleWaiters = reg.idleWaiters[k-1], reg.idleWaiters[:k-1]
	} else {
		w = n.rt.clk.NewWaiter()
	}
	reg.waiters = append(reg.waiters, w)
	return w
}

// removeWaiter deregisters w and keeps it for reuse.
func (n *Node) removeWaiter(w clock.Waiter) {
	reg := n.reg
	reg.wmu.Lock()
	for i, nw := range reg.waiters {
		if nw == w {
			reg.waiters = append(reg.waiters[:i], reg.waiters[i+1:]...)
			break
		}
	}
	reg.idleWaiters = append(reg.idleWaiters, w)
	reg.wmu.Unlock()
}

// wakeWaiters unblocks every goroutine waiting on this node — called when
// a message is delivered and when the node stops. Waking is cheap and
// spurious wakes are harmless (waiters loop and re-check).
func (n *Node) wakeWaiters() {
	reg := n.reg
	reg.wmu.Lock()
	for _, w := range reg.waiters {
		w.Wake()
	}
	reg.wmu.Unlock()
}

// stopping reports whether the node has left the running state.
func (n *Node) stopping() bool { return atomic.LoadInt32(&n.lifecycle) != lcRunning }

// finish resolves the node's terminal state after Main returns.
func (n *Node) finish() {
	n.lifeMu.Lock()
	if atomic.LoadInt32(&n.lifecycle) == lcRunning {
		// Normal exit: record and notify (§3.6.2 "the node's state machine
		// sends an exit notification to all the other state machines").
		atomic.StoreInt32(&n.lifecycle, lcExited)
		at := n.reg.recorder.Now()
		n.reg.mu.Lock()
		n.state = spec.StateExit
		n.reg.mu.Unlock()
		n.reg.recorder.RecordStateChange("EXIT", spec.StateExit, at)
		if tr := n.rt.trace.Load(); tr != nil {
			tr.Event(n.rt.clk.Now(), obs.CatNode, n.Nickname(), "exited")
		}
		n.broadcast(spec.StateExit, n.exitNotifyList())
		close(n.done)
	}
	n.lifeMu.Unlock()
	n.wakeWaiters()
	n.host.daemon.nodeFinished(n)
	n.rt.nodeFinished(n)
}

// exitNotifyList: machines to tell about our exit — the EXIT state's notify
// list when given, else everyone we ever notify.
func (n *Node) exitNotifyList() []string {
	if def, ok := n.reg.Spec.States[spec.StateExit]; ok && len(def.Notify) > 0 {
		return def.Notify
	}
	return n.reg.Spec.MachinesNotified()
}

// crash marks the node crashed, records the crash event and state (§3.6.2:
// the daemon "writes the crash event to the local timeline"), and notifies
// the other machines per the CRASH state's notify list.
func (n *Node) crash() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if atomic.LoadInt32(&n.lifecycle) != lcRunning {
		return
	}
	atomic.StoreInt32(&n.lifecycle, lcCrashed)
	at := n.reg.recorder.Now()
	n.reg.mu.Lock()
	n.state = spec.StateCrash
	n.reg.mu.Unlock()
	n.reg.recorder.RecordStateChange(spec.EventCrash, spec.StateCrash, at)
	if m := n.rt.om; m != nil {
		m.Crashes.Inc()
	}
	if tr := n.rt.trace.Load(); tr != nil {
		tr.Event(n.rt.clk.Now(), obs.CatNode, n.Nickname(), "crashed")
	}
	n.broadcast(spec.StateCrash, n.reg.Spec.NotifyList(spec.StateCrash))
	close(n.done)
	n.wakeWaiters()
}

// kill force-terminates without recording a crash state transition beyond a
// note — the central daemon's abort path for hung experiments (§3.5.1).
func (n *Node) kill() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if atomic.LoadInt32(&n.lifecycle) != lcRunning {
		return
	}
	atomic.StoreInt32(&n.lifecycle, lcKilled)
	n.reg.recorder.RecordNote("killed by central daemon")
	close(n.done)
	n.wakeWaiters()
}

// Outcome reports how the node terminated: "running", "exited", "crashed",
// or "killed".
func (n *Node) Outcome() string {
	switch atomic.LoadInt32(&n.lifecycle) {
	case lcExited:
		return "exited"
	case lcCrashed:
		return "crashed"
	case lcKilled:
		return "killed"
	default:
		return "running"
	}
}

// localEvent is the probe's event notification path (§3.5.7 notifyEvent):
// track the local state, record, notify remote machines, and run the fault
// parser. The fault parser evaluates against the live view under the same
// lock as the mutation — no per-event copy — and only the expressions
// mentioning this machine are re-evaluated (the compiled trigger index).
func (n *Node) localEvent(event string) error {
	if atomic.LoadInt32(&n.lifecycle) != lcRunning {
		return fmt.Errorf("core: node %s is not running", n.Nickname())
	}
	at := n.reg.recorder.Now()
	n.touch()

	n.reg.mu.Lock()
	if n.reg.node != n {
		// A restart took the registration over while this event was on
		// its way in: the view and triggers are the new node's.
		n.reg.mu.Unlock()
		return fmt.Errorf("core: node %s is not running", n.Nickname())
	}
	var next string
	switch {
	case n.state == "":
		// The first notification initializes the state machine (§3.5.7):
		// either it names a state directly, or BEGIN has a transition on it.
		if n.reg.Spec.HasGlobalState(event) {
			next = event
		} else if s, ok := n.reg.Spec.Next(spec.StateBegin, event); ok {
			next = s
		} else {
			n.reg.mu.Unlock()
			return fmt.Errorf("core: node %s: first event %q is neither a state nor a BEGIN transition", n.Nickname(), event)
		}
	default:
		s, ok := n.reg.Spec.Next(n.state, event)
		if !ok {
			n.reg.mu.Unlock()
			n.rt.cfg.Logf("core: node %s: event %q has no transition from state %q; ignored", n.Nickname(), event, n.state)
			return nil
		}
		next = s
	}
	n.state = next
	n.reg.view.set(n.Nickname(), next)
	fired := n.reg.triggers.ObserveChange(n.Nickname(), n.reg.view)
	n.reg.mu.Unlock()

	n.reg.recorder.RecordStateChange(event, next, at)
	if m := n.rt.om; m != nil {
		m.StateChanges.Inc()
	}
	if tr := n.rt.trace.Load(); tr != nil {
		tr.Event(n.rt.clk.Now(), obs.CatProbe, n.Nickname(), event+" -> "+next)
	}
	n.broadcast(next, n.reg.Spec.NotifyList(next))
	n.inject(fired)
	return nil
}

// remoteNotify is the transport's delivery path for remote state changes.
func (n *Node) remoteNotify(note stateNote) {
	if atomic.LoadInt32(&n.lifecycle) != lcRunning {
		return
	}
	n.touch()
	n.reg.mu.Lock()
	if n.reg.node != n { // restarted meanwhile; see localEvent
		n.reg.mu.Unlock()
		return
	}
	n.reg.view.set(note.From, note.State)
	fired := n.reg.triggers.ObserveChange(note.From, n.reg.view)
	n.reg.mu.Unlock()
	n.inject(fired)
}

// inject performs the demanded injections through the probe (§3.5.5),
// recording their times. It must be called without mu held: actions are
// free to call back into the node (h.Crash, h.Note, ...). Faults naming a
// built-in action dispatch to the fault-action hook (the chaos engine)
// when one is installed; otherwise they fall back to the application
// callback like any other fault.
func (n *Node) inject(fired []faultexpr.Spec) {
	for _, f := range fired {
		if atomic.LoadInt32(&n.lifecycle) != lcRunning {
			return
		}
		at := n.reg.recorder.Now()
		n.reg.recorder.RecordInjection(f.Name, at)
		if m := n.rt.om; m != nil {
			m.Injections.Inc()
		}
		tr := n.rt.trace.Load()
		if f.Action != nil {
			if hook := n.rt.faultActionHook(); hook != nil {
				if m := n.rt.om; m != nil {
					m.ChaosActions.Inc()
				}
				if tr != nil {
					tr.Event(n.rt.clk.Now(), obs.CatChaos, f.Name, n.Nickname())
				}
				hook(n, f)
				continue
			}
		}
		if tr != nil {
			tr.Event(n.rt.clk.Now(), obs.CatInject, f.Name, n.Nickname())
		}
		n.reg.App.InjectFault(&n.handle, f.Name)
	}
}

// broadcast sends a state notification to the listed machines through the
// daemons (§3.5.4). Self-notifications are meaningless and skipped.
func (n *Node) broadcast(state string, targets []string) {
	if len(targets) == 0 {
		return
	}
	note := stateNote{From: n.Nickname(), State: state}
	for _, to := range targets {
		if to == n.Nickname() {
			continue
		}
		n.rt.route(n.Host(), note, to)
	}
}

// touch refreshes the watchdog liveness timestamp.
func (n *Node) touch() { n.lastAlive.Store(int64(n.rt.source.NowTicks())) }

// staleFor reports how long the node has been silent.
func (n *Node) staleFor() vclock.Ticks {
	return n.rt.source.NowTicks() - vclock.Ticks(n.lastAlive.Load())
}

// Handle is the probe's interface to the node runtime — what the
// instrumented application calls (§3.5.7): notifyEvent, notifyOnCrash,
// notifyOnExit, plus the application bus this reproduction provides in
// place of the application's own sockets.
type Handle struct {
	node *Node

	busMu sync.Mutex
	inbox chan AppMessage
}

// Nickname returns the node's state machine name.
func (h *Handle) Nickname() string { return h.node.Nickname() }

// HostName returns the host the node is (currently) running on.
func (h *Handle) HostName() string { return h.node.Host() }

// Restarted reports whether this node is a restart of a crashed node
// (§3.6.3). The application uses it to choose its RESTART path (§5.5).
func (h *Handle) Restarted() bool { return h.node.Restarted() }

// NotifyEvent reports a local event to the state machine (§3.5.7). The
// first call initializes the state machine's state.
func (h *Handle) NotifyEvent(event string) error { return h.node.localEvent(event) }

// Note records a free-form message into the local timeline (§3.5.6).
func (h *Handle) Note(text string) { h.node.reg.recorder.RecordNote(text) }

// Now reads the node's host clock.
func (h *Handle) Now() vclock.Ticks { return h.node.reg.recorder.Now() }

// Crash simulates a process crash: the overridden-signal-handler path of
// §3.6.2 (notifyOnCrash). The crash is recorded, remote machines are
// notified per the CRASH notify list, and Done() closes. Main must return.
func (h *Handle) Crash() { h.node.crash() }

// Done is closed when the node must stop running: it crashed, was killed,
// or exited. Application loops must select on it.
func (h *Handle) Done() <-chan struct{} { return h.node.done }

// Crashed reports whether the node has crashed.
func (h *Handle) Crashed() bool { return atomic.LoadInt32(&h.node.lifecycle) == lcCrashed }

// Sleep pauses the application for d, returning false immediately if the
// node is stopped first. The application should use this instead of
// time.Sleep so kills are prompt (and so virtual time can skip the wait).
func (h *Handle) Sleep(d time.Duration) bool {
	n := h.node
	n.touch()
	if n.stopping() {
		return false
	}
	if d <= 0 {
		return true
	}
	clk := n.rt.clk
	deadline := clk.Now().Add(d)
	w := n.addWaiter()
	defer n.removeWaiter(w)
	for {
		if n.stopping() {
			return false
		}
		rem := deadline.Sub(clk.Now())
		if rem <= 0 {
			n.touch()
			return true
		}
		w.Wait(rem)
	}
}

// Clock returns the runtime's scheduling clock. Instrumented applications
// must take timestamps and measure elapsed time through it — never the
// time package — so the same application runs unchanged under virtual
// time.
func (h *Handle) Clock() clock.Clock { return h.node.rt.clk }

// Go spawns an application goroutine through the runtime clock. Any app
// goroutine that sleeps or waits must be started this way, or the virtual
// scheduler cannot see it.
func (h *Handle) Go(fn func()) { h.node.rt.clk.Go(fn) }

// Heartbeat refreshes the watchdog without any other effect. Long-running
// computations should call it; a node silent past the watchdog timeout is
// declared crashed (§3.6.2).
func (h *Handle) Heartbeat() { h.node.touch() }
