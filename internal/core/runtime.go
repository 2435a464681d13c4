// Package core implements the enhanced Loki runtime (thesis Chapter 3):
// per-node state machines, state machine transports, fault parsers,
// recorders and probes, one local daemon per host, and a central daemon
// coordinating experiments. The architecture is the thesis's chosen design —
// partially distributed with all communication through the daemons
// (§3.4.2) — with dynamic entry, exit, crash and restart of nodes (§3.6).
//
// The multi-host testbed is virtualized in one process: each Host couples a
// name with a hidden-error vclock.Clock, daemons exchange notifications
// through asynchronous channels with configurable injected latency (the
// thesis quotes ~20 µs IPC and ~150 µs TCP on its LAN), and the
// application under study runs as one goroutine per node, instrumented
// through a probe Handle exactly as §3.5.7 prescribes. Nothing blocks the
// application while notifications are in transit, so the partial view of
// global state can go stale — the race Loki's off-line analysis exists to
// catch.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Host is a virtual machine in the testbed: a name and a local clock.
type Host struct {
	Name  string
	Clock *vclock.Clock
}

// Config configures a Runtime.
type Config struct {
	// Source is the shared physical time base the host clocks read.
	// Defaults to Clock, which is one: the testbed then has a single time
	// base.
	Source vclock.Source
	// Clock is the scheduling clock the runtime blocks and defers through.
	// Defaults to the wall clock; a virtual-time campaign supplies a
	// clock.Virtual here so delivery delays, watchdog polls, experiment
	// timeouts and (through the default Source) host-clock timestamps run
	// in simulated time.
	Clock clock.Clock
	// LocalDelay is the injected latency for same-host (IPC) notification
	// hops; the thesis measures ~20 µs (§3.4.2).
	LocalDelay time.Duration
	// RemoteDelay is the injected latency for host-to-host (TCP) hops;
	// the thesis measures ~150 µs.
	RemoteDelay time.Duration
	// WatchdogInterval is how often local daemons probe their nodes for
	// liveness; zero disables the watchdog (§3.6.2's second detection
	// path).
	WatchdogInterval time.Duration
	// WatchdogTimeout is the staleness threshold after which a silent
	// node is declared crashed. The thesis gives "the user the flexibility
	// to fix the timeout value".
	WatchdogTimeout time.Duration
	// Logf, if set, receives runtime diagnostics (dropped notifications,
	// watchdog kills). Defaults to the Obs sink's logger when one is
	// configured, else to discarding them.
	Logf func(format string, args ...interface{})
	// Obs, if set, receives runtime metrics and per-experiment traces.
	// The metric bundle is resolved once at New; per-experiment traces are
	// attached with SetTrace. Nil disables observability at zero cost on
	// the notification hot path.
	Obs *obs.Sink
	// Transport, if set, carries traffic for hosts owned by other
	// endpoints (transport.go). Nil — or an endpoint whose topology
	// places every host locally — keeps every path in-memory.
	Transport transport.Transport
}

// Runtime is one Loki testbed: hosts, daemons, and nodes. Create with New,
// add hosts with AddHost, register node definitions with Register, start
// them with StartNode, and wait for experiment completion with Wait.
type Runtime struct {
	cfg    Config
	source vclock.Source
	clk    clock.Clock
	// logging is false when cfg.Logf discards: the notification hot path
	// then skips the call, and with it boxing the arguments.
	logging bool

	// om is the pre-resolved metric bundle (nil when metrics are off), and
	// trace the current experiment's trace (nil pointer loads when tracing
	// is off) — both shaped so the disabled path is one pointer test, no
	// allocation, no interface dispatch.
	om    *obs.RuntimeMetrics
	trace atomic.Pointer[obs.Trace]

	// netem is the application-bus traffic shaping state (netem.go); it
	// has its own lock and is consulted on every Handle.Send.
	netem *netem
	apps  appCodec // application payloads crossing the transport; own locks

	mu            sync.Mutex
	hosts         map[string]*hostState
	order         []*hostState // hosts in AddHost order, the order Rewind restarts their watchdogs in
	defs          map[string]*registration
	rebinds       uint64           // Rebind calls, marking the registrations each one binds
	nodes         map[string]*Node // live nodes by nickname
	store         *timeline.Store  // the "NFS-mounted" timeline repository (§3.8)
	outcomes      map[string]string
	placement     map[string]string // nickname -> expected host, for remote routing
	remoteNicks   []string          // cached sorted remote nicknames (transport.go)
	remoteNicksOK bool
	active        int
	doneWaiters   []clock.Waiter // Wait callers, woken when active hits zero
	idleWaiters   []clock.Waiter // Wait's waiters between calls, for the next
	stopped       bool
	sealed        bool                            // experiment over; no nodes may start until reset
	actionHook    func(n *Node, f faultexpr.Spec) // built-in action dispatcher (netem.go)
	transportHook func(m transport.Message)       // cluster-protocol frames (transport.go)

	// Application inboxes are recycled across experiments, never within
	// one: inboxUsed holds the channels handed to this experiment's
	// handles (a restarted node gets its own), and ResetExperiment drains
	// them onto inboxFree. Both are bounded by the most nodes one
	// experiment ever started.
	inboxFree []chan AppMessage
	inboxUsed []chan AppMessage
	// deliveries are the spent notification deliveries (route), kept for
	// reuse; bounded by the most notifications ever in flight at once.
	deliveries []*delivery
	// spent is the emptied list of the timelines last handed back, which
	// RunExperiment collects the next ones into.
	spent []*timeline.Local
}

type hostState struct {
	host   Host
	daemon *LocalDaemon
	down   bool // crashed host (§3.6.4); no nodes may start until reboot
	// hosts is the host list of a timeline started here: just this host,
	// clipped, and shared read-only by every such timeline like the
	// header. A restart elsewhere appends to it, and so copies it.
	hosts []string
}

// NodeDef is one state machine as Register takes it: the state machine
// specification, the fault specification (§5.6's study file contents) and
// the instrumented application the runtime drives. A campaign study
// describes its nodes without App, and a testbed builds the applications
// of the nodes it runs once per study or point it runs
// (campaign.Study.NewApp).
type NodeDef struct {
	Nickname string
	Spec     *spec.StateMachine
	Faults   []faultexpr.Spec
	App      App
}

// New creates an empty runtime.
func New(cfg Config) *Runtime {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Source == nil {
		cfg.Source = cfg.Clock
	}
	logging := true
	if cfg.Logf == nil {
		if cfg.Obs != nil && cfg.Obs.Log != nil {
			cfg.Logf = cfg.Obs.Log.Func(obs.Warn, "core")
		} else {
			cfg.Logf = func(string, ...interface{}) {}
			logging = false
		}
	}
	r := &Runtime{
		cfg:       cfg,
		logging:   logging,
		om:        cfg.Obs.RuntimeMetrics(),
		source:    cfg.Source,
		clk:       cfg.Clock,
		netem:     newNetem(1),
		hosts:     make(map[string]*hostState),
		defs:      make(map[string]*registration),
		nodes:     make(map[string]*Node),
		store:     timeline.NewStore(),
		outcomes:  make(map[string]string),
		placement: make(map[string]string),
	}
	return r
}

// Clock returns the runtime's scheduling clock.
func (r *Runtime) Clock() clock.Clock { return r.clk }

// Logf forwards to the runtime's configured diagnostic sink (Config.Logf;
// a no-op by default). The chaos engine reports action failures here.
func (r *Runtime) Logf(format string, args ...interface{}) { r.cfg.Logf(format, args...) }

// SetTrace attaches (or, with nil, detaches) the current experiment's
// trace. The campaign engine attaches a fresh trace before each runtime
// phase and detaches it before analysis; runtime emitters load the pointer
// atomically, so a nil trace costs one atomic load on the hot path.
func (r *Runtime) SetTrace(t *obs.Trace) { r.trace.Store(t) }

// AddHost adds a virtual host with the given hidden clock error and starts
// its local daemon. Duplicate names are a configuration bug and panic.
func (r *Runtime) AddHost(name string, clockCfg vclock.ClockConfig) *Host {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.hosts[name]; dup {
		panic(fmt.Sprintf("core: duplicate host %q", name))
	}
	h := Host{Name: name, Clock: vclock.NewClock(r.source, clockCfg)}
	hs := &hostState{host: h, hosts: []string{name}}
	hs.daemon = newLocalDaemon(r, h)
	r.hosts[name] = hs
	r.order = append(r.order, hs)
	return &hs.host
}

// Hosts returns the host names, sorted.
func (r *Runtime) Hosts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hosts))
	for n := range r.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HostClock returns the clock of the named host, or nil.
func (r *Runtime) HostClock(name string) *vclock.Clock {
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs, ok := r.hosts[name]; ok {
		return hs.host.Clock
	}
	return nil
}

// Register adds a node definition. Every state machine that could possibly
// start during an experiment must be registered with a unique name before
// the experiment runs (§3.8).
func (r *Runtime) Register(def NodeDef) error {
	if def.Nickname == "" || def.Spec == nil || def.App == nil {
		return fmt.Errorf("core: node definition needs nickname, spec, and app")
	}
	if err := def.Spec.Validate(); err != nil {
		return fmt.Errorf("core: node %q: %w", def.Nickname, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[def.Nickname]; dup {
		return fmt.Errorf("core: duplicate node definition %q", def.Nickname)
	}
	r.defs[def.Nickname] = newRegistration(def)
	return nil
}

// Rebind makes defs the runtime's node definitions, as Register of each
// would on a runtime with none. A registration whose definition has the
// same Spec and the same Faults slice is kept, with only its App swapped,
// so its header, trigger set, view, recorder, spare timeline and waiters
// stay; one whose nickname defs lacks, or whose definition changed, is
// dropped, and every definition not kept is registered anew with
// Register. It must not be called while nodes are live; after an error
// the definitions are partly rebound.
func (r *Runtime) Rebind(defs []NodeDef) error {
	r.mu.Lock()
	r.rebinds++
	for i, def := range defs {
		reg := r.defs[def.Nickname]
		if reg != nil && reg.bound != r.rebinds && def.App != nil && reg.Spec == def.Spec && sameFaults(reg.Faults, def.Faults) {
			reg.App, reg.bound, reg.slot = def.App, r.rebinds, i
		}
	}
	for nick, reg := range r.defs {
		if reg.bound != r.rebinds {
			delete(r.defs, nick)
		}
	}
	r.mu.Unlock()
	for i, def := range defs {
		r.mu.Lock()
		reg := r.defs[def.Nickname]
		kept := reg != nil && reg.bound == r.rebinds && reg.slot == i
		r.mu.Unlock()
		if !kept {
			if err := r.Register(def); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameFaults reports whether a and b are one fault list: the same elements
// of the same array.
func sameFaults(a, b []faultexpr.Spec) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Rewind returns a runtime with no live node to the state New and AddHost
// left it in, keeping its hosts, registrations and pools, with the
// notification delays set to local and remote: the experiment is reset,
// a virtual clock goes back to time zero (clock.Virtual.Rewind), every
// host clock reads as a fresh one (vclock.Clock.Reset), the placement is
// forgotten, traffic shaping is reseeded with seed 1 and the fault-action
// hook detached, and each daemon's watchdog — the one task a runtime parks
// between experiments — is stopped and restarted, in AddHost order, so it
// ticks from the rewound clock as a fresh one would. A campaign testbed
// rewinds before each study or matrix point it runs.
func (r *Runtime) Rewind(local, remote time.Duration) {
	r.ResetExperiment()
	for _, hs := range r.order {
		hs.daemon.stop()
	}
	for _, hs := range r.order {
		hs.daemon.awaitStop()
	}
	if v, ok := r.clk.(*clock.Virtual); ok {
		// A watchdog that has returned may still be in the scheduler's
		// hands; Drive waits until the clock is quiescent.
		v.Drive()
		v.Release()
		v.Rewind()
	}
	r.mu.Lock()
	r.cfg.LocalDelay, r.cfg.RemoteDelay = local, remote
	r.actionHook = nil
	clear(r.placement)
	r.remoteNicks, r.remoteNicksOK = nil, false
	for _, hs := range r.order {
		hs.host.Clock.Reset()
	}
	r.mu.Unlock()
	r.SeedNetem(1)
	for _, hs := range r.order {
		hs.daemon.startWatchdog()
	}
}

// StartNode starts (or restarts) the named node on the named host. A node
// whose nickname already has a stored timeline is a restart (§3.6.3); its
// Handle reports Restarted and its recorder appends to the old timeline.
// A start on another endpoint's host is forwarded there, so the node need
// only be registered where its host lives.
func (r *Runtime) StartNode(nickname, host string) (*Node, error) {
	r.mu.Lock()
	hs, ok := r.hosts[host]
	if !ok {
		r.mu.Unlock()
		// A node of another endpoint's host: forward the start (chaos
		// restarts reach here). The start is asynchronous and yields no
		// local handle.
		return nil, r.forwardChaos(chaosOp{Op: "startnode", Nick: nickname, A: host})
	}
	reg, ok := r.defs[nickname]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: unknown node %q (not registered)", nickname)
	}
	if hs.down {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: host %q is down", host)
	}
	if _, live := r.nodes[nickname]; live {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: node %q is already running", nickname)
	}
	if r.stopped {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: runtime is stopped")
	}
	if r.sealed {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: experiment is sealed; node %q may not start", nickname)
	}

	local := r.store.Get(nickname)
	restarted := local != nil && len(local.Entries) > 0
	if local == nil {
		// A new timeline: the shared header, and entries of its own — a
		// handed-back spare's, emptied, or fresh ones, the last timeline
		// having gone to whoever collected that experiment.
		if local, reg.spare = reg.spare, nil; local != nil {
			*local = timeline.Local{Meta: reg.header, Entries: local.Entries[:0]}
		} else {
			local = &timeline.Local{Meta: reg.header, Entries: make([]timeline.Entry, 0, reg.entries)}
		}
		local.Hosts = hs.hosts
		r.store.Put(local)
	}
	n := newNode(r, reg, hs, local, restarted)
	r.nodes[nickname] = n
	r.active++
	peers := reg.peers[:0]
	for nick, p := range r.nodes {
		if nick != nickname {
			peers = append(peers, p)
		}
	}
	reg.peers = peers
	r.mu.Unlock()

	// Seed the restarted (or fresh) node's partial view from the states of
	// the live machines (§3.6.3: "obtains state updates from all the other
	// state machines").
	n.seedView(peers)

	hs.daemon.adopt(n)
	n.run()
	return n, nil
}

// RecycleTimelines takes back the timelines of a finished experiment, and
// the slice that lists them, once the caller no longer references any of
// them: later starts record into them, at most one per registration, and
// the next RunExperiment collects its timelines into the slice.
func (r *Runtime) RecycleTimelines(spent []*timeline.Local) {
	r.mu.Lock()
	for _, l := range spent {
		if reg := r.defs[l.Owner]; reg != nil && reg.spare == nil {
			reg.spare = l
		}
	}
	clear(spent)
	r.spent = spent[:0]
	r.mu.Unlock()
}

// CollectTimelines returns the sealed experiment's timelines, ordered by
// nickname, in the slice last handed back to RecycleTimelines, if any.
// They are the caller's until it hands them back.
func (r *Runtime) CollectTimelines() []*timeline.Local {
	r.mu.Lock()
	defer r.mu.Unlock()
	timelines := r.store.AppendAll(r.spent)
	r.spent = nil
	return timelines
}

// Node returns the live node with the given nickname, or nil.
func (r *Runtime) Node(nickname string) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[nickname]
}

// SnapshotTimeline returns a safely readable view of a machine's timeline
// while the experiment may still be running: a copy for live nodes, or
// the final timeline for finished ones (no further writes can occur). It
// returns nil for unknown nicknames. Supervisors use this to watch for
// crashes mid-experiment.
func (r *Runtime) SnapshotTimeline(nickname string) *timeline.Local {
	r.mu.Lock()
	n, live := r.nodes[nickname]
	var done *timeline.Local
	if !live {
		done = r.store.Get(nickname)
	}
	r.mu.Unlock()
	if live {
		return n.reg.recorder.Snapshot()
	}
	return done
}

// TimelineNames returns the nicknames with timelines this experiment,
// sorted.
func (r *Runtime) TimelineNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Names()
}

// appendLiveNodes appends the nicknames of running nodes to dst, sorted.
func (r *Runtime) appendLiveNodes(dst []string) []string {
	r.mu.Lock()
	dst = slices.Grow(dst, len(r.nodes))
	for n := range r.nodes {
		dst = append(dst, n)
	}
	r.mu.Unlock()
	sort.Strings(dst)
	return dst
}

// Wait blocks until the experiment completes — no nodes are executing,
// because all of them exited or crashed (§3.6.1) — or until timeout, in
// which case the experiment is declared hung and every node is killed, as
// the central daemon does (§3.5.1). It reports whether completion was
// natural (true) or by timeout (false). The deadline is on Wait's own done
// waiter, counted from the call, and a timed-out Wait runs KillAll itself
// and returns only once the killed nodes have finished: nothing of this
// experiment's wait is left scheduled to fire into the next.
func (r *Runtime) Wait(timeout time.Duration) bool {
	// A reused waiter may carry a sticky wake from its last call: one
	// spurious pass of the loop below, which re-checks anyway.
	r.mu.Lock()
	var w clock.Waiter
	if n := len(r.idleWaiters); n > 0 {
		w, r.idleWaiters = r.idleWaiters[n-1], r.idleWaiters[:n-1]
	} else {
		w = r.clk.NewWaiter()
	}
	r.doneWaiters = append(r.doneWaiters, w)
	r.mu.Unlock()
	defer r.dropDoneWaiter(w)

	start := r.clk.NowTicks()
	timedOut := false
	for {
		r.mu.Lock()
		active := r.active
		r.mu.Unlock()
		if active == 0 {
			return !timedOut
		}
		left := time.Duration(-1)
		if timeout > 0 && !timedOut {
			// A wake is not completion: the deadline is re-checked on
			// every pass, from the call's start.
			if left = timeout - (r.clk.NowTicks() - start).Duration(); left <= 0 {
				timedOut = true
				r.KillAll()
				continue
			}
		}
		w.Wait(left)
	}
}

func (r *Runtime) dropDoneWaiter(w clock.Waiter) {
	r.mu.Lock()
	for i, dw := range r.doneWaiters {
		if dw == w {
			r.doneWaiters = append(r.doneWaiters[:i], r.doneWaiters[i+1:]...)
			break
		}
	}
	r.idleWaiters = append(r.idleWaiters, w)
	r.mu.Unlock()
}

// KillAll forcibly terminates every live node (central daemon abort path).
func (r *Runtime) KillAll() {
	r.mu.Lock()
	nodes := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// Shutdown kills all nodes and stops daemons. The runtime cannot be reused.
func (r *Runtime) Shutdown() {
	r.KillAll()
	r.mu.Lock()
	r.stopped = true
	hosts := make([]*hostState, 0, len(r.hosts))
	for _, hs := range r.hosts {
		hosts = append(hosts, hs)
	}
	r.mu.Unlock()
	for _, hs := range hosts {
		hs.daemon.stop()
	}
}

// nodeFinished is called by a node when it exits or crashes; it checks for
// experiment completion (§3.5.2: local daemons check on every exit/crash).
func (r *Runtime) nodeFinished(n *Node) {
	r.mu.Lock()
	var buf [2]clock.Waiter
	wake := buf[:0]
	if r.nodes[n.Nickname()] == n {
		delete(r.nodes, n.Nickname())
		r.outcomes[n.Nickname()] = n.Outcome()
		r.active--
		if r.active == 0 {
			wake = append(wake, r.doneWaiters...)
		}
	}
	r.mu.Unlock()
	for _, w := range wake {
		w.Wake()
	}
}

// Outcomes returns how each finished node terminated ("exited", "crashed",
// or "killed"), keyed by nickname. Restarted nodes report their most recent
// termination.
func (r *Runtime) Outcomes() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.outcomes))
	for k, v := range r.outcomes {
		out[k] = v
	}
	return out
}

// ResetExperiment clears per-experiment state (the timeline store, the
// outcome table, app-bus traffic shaping, and host down flags) so the
// runtime can host the next experiment of a study. It must not be called
// while nodes are live.
func (r *Runtime) ResetExperiment() {
	r.mu.Lock()
	if len(r.nodes) > 0 {
		r.mu.Unlock()
		panic("core: ResetExperiment with live nodes")
	}
	// The timelines leave with the store: whoever collected them owns
	// them until it hands them back. Only their lengths stay, as the next
	// fresh timelines' capacity.
	for nick, reg := range r.defs {
		if l := r.store.Get(nick); l != nil {
			reg.entries = len(l.Entries)
		}
		reg.recorder.Detach()
	}
	r.store.Reset()
	clear(r.outcomes)
	r.sealed = false
	// Crashed hosts reboot and stepped clocks are restored between
	// experiments: each experiment starts on a healthy testbed, whatever
	// faults the last one injected — otherwise one experiment's clockstep
	// would poison every later experiment on this runtime, making
	// accepted sets depend on which worker ran it.
	for _, hs := range r.hosts {
		hs.down = false
		hs.host.Clock.ClearStep()
	}
	r.mu.Unlock()
	r.netem.reset()
	r.recycleInboxes()
}

// SealExperiment marks the experiment over: node starts are refused and
// pending experiment-scoped timers (ExpAfterFunc) are voided, until the
// next ResetExperiment — straggling restart work (a supervisor poll, a
// chaos crashrestart timer) cannot resurrect nodes into a finished
// experiment. Voiding waits out any timer body already past its checks
// (the expMu barrier), but such a body may have restarted a node in the
// gap between Wait observing zero activity and the seal taking effect, so
// whatever is still live afterwards is killed and awaited. Last, every
// recorder lets go of its timeline: from here the store's timelines are
// final, and the caller may hand them on without copying.
func (r *Runtime) SealExperiment() {
	r.mu.Lock()
	r.sealed = true
	r.mu.Unlock()
	r.netem.bumpEpoch()
	r.mu.Lock()
	stragglers := len(r.nodes) > 0
	r.mu.Unlock()
	if stragglers {
		r.KillAll()
		r.Wait(time.Second)
	}
	r.mu.Lock()
	for _, reg := range r.defs {
		reg.recorder.Detach()
	}
	r.mu.Unlock()
}

// route delivers a state notification from one machine to another through
// the daemon hierarchy: sender's local daemon, then (if remote) the
// receiver's local daemon, then the receiver's transport (§3.5.2). The
// delay models the two-IPC-plus-one-TCP path of the chosen design.
func (r *Runtime) route(fromHost string, note stateNote, to string) {
	r.mu.Lock()
	target, live := r.nodes[to]
	var d *delivery
	if live {
		d = r.newDelivery(target, note)
	}
	r.mu.Unlock()
	if !live {
		// The node is not executing here — but it may be executing in
		// another process: placement decides. The socket hop replaces the
		// injected delay; its latency is real.
		if host, remote := r.remoteHostFor(to); remote {
			r.sendRemoteNote(host, note, to)
			return
		}
		// "If there is a notification for a state machine that is
		// currently not executing, the notification is discarded with a
		// warning message." (§3.6.1)
		if m := r.om; m != nil {
			m.DroppedNotifications.Inc()
		}
		if r.logging {
			r.cfg.Logf("core: dropping notification %s->%s (%s): target not executing", note.From, to, note.State)
		}
		return
	}
	if m := r.om; m != nil {
		m.Notifications.Inc()
	}
	delay := r.cfg.RemoteDelay
	if target.Host() == fromHost {
		delay = r.cfg.LocalDelay
	}
	if delay <= 0 {
		r.clk.Go(d.run)
		return
	}
	r.clk.AfterFunc(delay, d.run)
}

// delivery is one routed notification in flight, from route or from a
// peer endpoint (handleTransportMessage). The runtime keeps the spent
// ones, each with its run bound once, so scheduling a delivery allocates
// nothing; run hands the value back before delivering.
type delivery struct {
	rt     *Runtime
	target *Node
	note   stateNote
	run    func()
}

// newDelivery takes a spent delivery, or makes one. r.mu must be held.
func (r *Runtime) newDelivery(target *Node, note stateNote) *delivery {
	var d *delivery
	if n := len(r.deliveries); n > 0 {
		d, r.deliveries = r.deliveries[n-1], r.deliveries[:n-1]
	} else {
		d = &delivery{rt: r}
		d.run = d.deliver
	}
	d.target, d.note = target, note
	return d
}

func (d *delivery) deliver() {
	target, note, r := d.target, d.note, d.rt
	d.target = nil
	r.mu.Lock()
	r.deliveries = append(r.deliveries, d)
	r.mu.Unlock()
	target.remoteNotify(note)
}

// newHeader builds the timeline header lists of a definition, extending
// the spec's lists with the reserved names the runtime itself records
// (§3.5.7). Every list is clipped to its length, so no append to one can
// reach another timeline that shares it.
func newHeader(def *NodeDef) timeline.Meta {
	meta := timeline.Meta{Owner: def.Nickname}
	meta.GlobalStates = append(meta.GlobalStates, def.Spec.GlobalStates...)
	for _, s := range []string{spec.StateCrash, spec.StateExit} {
		if !contains(meta.GlobalStates, s) {
			meta.GlobalStates = append(meta.GlobalStates, s)
		}
	}
	meta.Events = append(meta.Events, def.Spec.Events...)
	// Reserved runtime events, plus every state name: the first probe
	// notification may name a state directly to initialize the machine
	// (§3.5.7), and it is recorded as the triggering "event".
	extra := append([]string{spec.EventCrash, spec.EventRestart, "EXIT"}, meta.GlobalStates...)
	for _, e := range extra {
		if !contains(meta.Events, e) {
			meta.Events = append(meta.Events, e)
		}
	}
	meta.Faults = append(meta.Faults, def.Faults...)
	// The state_machine_list names every machine this node's view can
	// contain: itself plus everyone it notifies or watches.
	machines := map[string]bool{def.Nickname: true}
	for _, m := range def.Spec.MachinesNotified() {
		machines[m] = true
	}
	for _, f := range def.Faults {
		for _, m := range faultexpr.Machines(f.Expr) {
			machines[m] = true
		}
	}
	for m := range machines {
		meta.Machines = append(meta.Machines, m)
	}
	sort.Strings(meta.Machines)
	meta.Machines = slices.Clip(meta.Machines)
	meta.GlobalStates = slices.Clip(meta.GlobalStates)
	meta.Events = slices.Clip(meta.Events)
	meta.Faults = slices.Clip(meta.Faults)
	return meta
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
