package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultexpr"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// This file is the runtime half of the link-interposition layer: the
// application bus (appbus.go) consults per-host-pair partitions and filter
// chains at send time, in simnet's Filter/Fate vocabulary, which is what
// the chaos action library (internal/chaos) installs. Only the application
// bus is shaped — the Loki notification LAN stays clean, as the thesis
// prescribes (§2.4: the runtime "can use a LAN separate from the one used
// by the system").
//
// It also carries the fault-action hook: fault specification entries that
// name a built-in action (faultexpr.Spec.Action) are dispatched here
// instead of through the application's InjectFault callback.

// netem is the runtime's traffic-shaping state. It has its own lock:
// shaping runs on application goroutines and must not contend with the
// runtime's node table. The filter-chain machinery itself is simnet's
// FilterSet.
type netem struct {
	mu         sync.Mutex
	seed       int64
	rng        *rand.Rand // built on the first filter consult, reseeded in place after
	seeded     bool       // rng draws seed's stream: set by the first consult after a (re)seed
	partitions map[[2]string]bool
	filters    simnet.FilterSet
	epoch      uint64
	timers     []*expTimer // fired ExpAfterFunc bodies, for reuse

	// shaping is the no-chaos fast path: while zero, Sends skip the lock
	// entirely. Set whenever a partition or filter is installed; cleared
	// only on reset (removals leave it set — conservative and cheap).
	shaping atomic.Int32

	// expMu serializes experiment-scoped timer bodies (ExpAfterFunc)
	// against SealExperiment/ResetExperiment: a timer body runs entirely
	// under the read side, the epoch bump takes the write side, so a
	// stale timer can never straddle a seal or reset. Lock order: expMu
	// before mu and before the runtime's mu.
	expMu sync.RWMutex
}

func newNetem(seed int64) *netem {
	return &netem{
		seed:       seed,
		partitions: make(map[[2]string]bool),
	}
}

// reset clears all shaping state and reseeds the randomness, so every
// experiment of a study faces an identical, freshly-seeded network.
// Reseeding is lazy: shapeAppMessage seeds the one generator in place from
// the stored seed on the first filter consult (Rand.Seed), building it only
// on the runtime's first. A math/rand source's stream depends on its seed
// alone, not on when or how often it was seeded, so the fates drawn are the
// ones an eager reseed, or a fresh generator, would draw — and the
// experiments that never consult a filter skip the 607-word seeding
// altogether.
func (ne *netem) reset() {
	ne.expMu.Lock()
	ne.mu.Lock()
	clear(ne.partitions)
	ne.filters.Clear()
	ne.seeded = false
	ne.epoch++
	ne.shaping.Store(0)
	ne.mu.Unlock()
	ne.expMu.Unlock()
}

// bumpEpoch voids pending experiment-scoped timers without clearing
// shaping state (SealExperiment's half of a reset). Taking the write side
// of expMu waits out any timer body that already passed its epoch check.
func (ne *netem) bumpEpoch() {
	ne.expMu.Lock()
	ne.mu.Lock()
	ne.epoch++
	ne.mu.Unlock()
	ne.expMu.Unlock()
}

// SeedNetem reseeds the application-bus traffic shaping randomness (drop
// probabilities and the like). It takes effect at once — the next draw of
// the current experiment starts the new seed's stream — and every later
// experiment reset restarts that stream from its beginning.
func (r *Runtime) SeedNetem(seed int64) {
	r.netem.mu.Lock()
	r.netem.seed = seed
	r.netem.seeded = false
	r.netem.mu.Unlock()
}

// ExpAfterFunc schedules fn after d, scoped to the current experiment: if
// the runtime is sealed, reset, or shut down before the timer fires, fn is
// skipped. Chaos actions use this for auto-revert (heal after 50 ms,
// restart after a crash) without straddling experiment boundaries. The
// body runs under the read side of the seal/reset lock, so the epoch check
// and fn are atomic with respect to SealExperiment and ResetExperiment — a
// stale timer cannot start nodes into the next experiment. The carrier of
// the epoch is reused once it has fired, so a fn that is itself reused (a
// method value bound once) is scheduled without allocating.
func (r *Runtime) ExpAfterFunc(d time.Duration, fn func()) {
	ne := r.netem
	ne.mu.Lock()
	var t *expTimer
	if n := len(ne.timers); n > 0 {
		t, ne.timers = ne.timers[n-1], ne.timers[:n-1]
	} else {
		t = &expTimer{r: r}
		t.run = t.fire
	}
	t.epoch, t.fn = ne.epoch, fn
	ne.mu.Unlock()
	r.clk.AfterFunc(d, t.run)
}

// expTimer is one ExpAfterFunc body: fn and the epoch it was scheduled in.
// run, bound once, is what the clock schedules.
type expTimer struct {
	r     *Runtime
	epoch uint64
	fn    func()
	run   func()
}

// fire runs fn if the runtime is still in t's experiment and live, and
// gives t back first: fn may schedule again.
func (t *expTimer) fire() {
	r, ne := t.r, t.r.netem
	ne.expMu.RLock()
	defer ne.expMu.RUnlock()
	ne.mu.Lock()
	fn, live := t.fn, t.epoch == ne.epoch
	t.fn = nil
	ne.timers = append(ne.timers, t)
	ne.mu.Unlock()
	r.mu.Lock()
	stopped := r.stopped
	r.mu.Unlock()
	if live && !stopped {
		fn()
	}
}

// PartitionHosts blocks application-bus traffic between hosts a and b in
// both directions. Notifications still flow: Loki's control LAN is
// separate from the system under study's. With a multi-endpoint
// transport the mutation is replicated to every peer process, so traffic
// originating anywhere on the testbed sees the same partition.
func (r *Runtime) PartitionHosts(a, b string) {
	if a != b {
		r.replicate(chaosOp{Op: "partition", A: a, B: b})
	}
}

// HealHosts removes the partition between a and b (replicated to peers).
func (r *Runtime) HealHosts(a, b string) { r.replicate(chaosOp{Op: "heal", A: a, B: b}) }

// HealAllPartitions removes every partition (replicated to peers).
func (r *Runtime) HealAllPartitions() { r.replicate(chaosOp{Op: "healall"}) }

func hostPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// InstallLinkFilter interposes f on application-bus traffic over the
// directed host link (simnet.Wildcard matches any host). Installing under
// an existing (link, id) replaces that filter in place. Built-in filters
// (Drop/Delay/Duplicate/Corrupt with the default envelope) are replicated
// to peer endpoints; a custom Filter implementation cannot cross the wire
// and shapes only traffic originating in this process.
func (r *Runtime) InstallLinkFilter(link simnet.Link, id string, f simnet.Filter) {
	op := chaosOp{Op: "filter", A: link.From, B: link.To, ID: id, filter: f}
	if describeFilter(&op, f) {
		r.replicate(op)
		return
	}
	r.applyChaosOp(op)
	if r.hasPeers() {
		r.cfg.Logf("core: link filter %q is not a built-in; peer endpoints will not shape with it", id)
	}
}

// RemoveLinkFilter removes the filter installed under (link, id),
// reporting whether one was present locally (replicated to peers).
func (r *Runtime) RemoveLinkFilter(link simnet.Link, id string) bool {
	return r.replicate(chaosOp{Op: "unfilter", A: link.From, B: link.To, ID: id}) == nil
}

// shapeAppMessage runs the interposition for one app-bus message and
// reports its fate. blocked is true for partition losses (fate is then
// meaningless). While no chaos is configured the atomic fast path skips
// the lock entirely, so unshaped campaigns pay nothing on the send path.
func (r *Runtime) shapeAppMessage(fromHost, toHost string, payload interface{}) (fate simnet.Fate, blocked bool) {
	ne := r.netem
	if ne.shaping.Load() == 0 {
		return simnet.Fate{}, false
	}
	ne.mu.Lock()
	defer ne.mu.Unlock()
	if fromHost != toHost && ne.partitions[hostPair(fromHost, toHost)] {
		return simnet.Fate{}, true
	}
	if ne.filters.Empty() {
		return simnet.Fate{}, false
	}
	if !ne.seeded {
		if ne.rng == nil {
			ne.rng = rand.New(rand.NewSource(ne.seed))
		} else {
			ne.rng.Seed(ne.seed)
		}
		ne.seeded = true
	}
	return ne.filters.Consult(fromHost, toHost, payload, ne.rng), false
}

// NodesOnHost returns the nicknames of live nodes currently on the named
// host, sorted — what a host crash would take down.
func (r *Runtime) NodesOnHost(host string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for nick, n := range r.nodes {
		if n.Host() == host {
			out = append(out, nick)
		}
	}
	sort.Strings(out)
	return out
}

// StepHostClock shifts the named host's clock by delta — the clock
// misbehaviour fault. The step is visible to every timestamp taken on that
// host from now on, violating the affine clock model the off-line
// synchronization assumes. A step aimed at a host owned by another
// endpoint is forwarded there.
func (r *Runtime) StepHostClock(host string, delta vclock.Ticks) error {
	return r.onHost(chaosOp{Op: "clockstep", A: host, Delta: int64(delta)})
}

// SetFaultActionHook installs the dispatcher for fault specification
// entries that name a built-in action (Spec.Action != nil). The chaos
// engine registers itself here; without a hook, action faults fall back to
// the application's InjectFault callback.
func (r *Runtime) SetFaultActionHook(hook func(n *Node, f faultexpr.Spec)) {
	r.mu.Lock()
	r.actionHook = hook
	r.mu.Unlock()
}

func (r *Runtime) faultActionHook() func(n *Node, f faultexpr.Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.actionHook
}
