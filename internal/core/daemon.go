package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// LocalDaemon is the per-host daemon (§3.5.2). In this reproduction its
// transport duties are carried by Runtime.route (the two-IPC-one-TCP path
// is modeled with injected delays); what remains here is node adoption,
// the watchdog, and experiment-end bookkeeping.
type LocalDaemon struct {
	rt   *Runtime
	host Host

	mu    sync.Mutex
	nodes map[string]*Node

	stopped atomic.Bool
	stopW   clock.Waiter
}

func newLocalDaemon(rt *Runtime, host Host) *LocalDaemon {
	d := &LocalDaemon{
		rt:    rt,
		host:  host,
		nodes: make(map[string]*Node),
		stopW: rt.clk.NewWaiter(),
	}
	if rt.cfg.WatchdogInterval > 0 && rt.cfg.WatchdogTimeout > 0 {
		rt.clk.Go(d.watchdog)
	}
	return d
}

// adopt registers a node with its host's daemon: the thesis's "spawns a
// separate thread to service the state machine" moment (§3.5.2).
func (d *LocalDaemon) adopt(n *Node) {
	d.mu.Lock()
	d.nodes[n.Nickname()] = n
	d.mu.Unlock()
}

// nodeFinished removes a finished node.
func (d *LocalDaemon) nodeFinished(n *Node) {
	d.mu.Lock()
	if d.nodes[n.Nickname()] == n {
		delete(d.nodes, n.Nickname())
	}
	d.mu.Unlock()
}

// watchdog periodically checks adopted nodes for liveness; a node silent
// past the timeout is assumed crashed (§3.6.2). The poll blocks through
// the runtime clock, so under virtual time the scan happens at exact
// interval multiples of simulated time.
func (d *LocalDaemon) watchdog() {
	for {
		if d.stopped.Load() {
			return
		}
		d.stopW.Wait(d.rt.cfg.WatchdogInterval)
		if d.stopped.Load() {
			return
		}
		limit := vclock.FromDuration(d.rt.cfg.WatchdogTimeout)
		d.mu.Lock()
		var stale []*Node
		for _, n := range d.nodes {
			if n.staleFor() > limit {
				stale = append(stale, n)
			}
		}
		d.mu.Unlock()
		// Crash in nickname order: map iteration order must not leak into
		// the recorded timelines (virtual-time runs are byte-reproducible).
		sort.Slice(stale, func(i, j int) bool { return stale[i].Nickname() < stale[j].Nickname() })
		for _, n := range stale {
			d.rt.cfg.Logf("core: watchdog on %s: node %s silent for %v; declaring crashed",
				d.host.Name, n.Nickname(), n.staleFor().Duration())
			if m := d.rt.om; m != nil {
				m.WatchdogKills.Inc()
			}
			n.crash()
		}
	}
}

func (d *LocalDaemon) stop() {
	d.stopped.Store(true)
	d.stopW.Wake()
}

// CentralDaemon manages experiments (§3.5.1): it starts the state machines
// the node file marks for auto-start, aborts hung experiments after the
// user's timeout, and collects results at completion.
type CentralDaemon struct {
	rt *Runtime
}

// NewCentralDaemon wraps a runtime.
func NewCentralDaemon(rt *Runtime) *CentralDaemon {
	return &CentralDaemon{rt: rt}
}

// ExperimentResult is one experiment's runtime-phase output: the local
// timelines of all state machines that ran, and how each terminated.
type ExperimentResult struct {
	// Completed is false when the experiment hit the timeout and was
	// aborted (its results should be discarded).
	Completed bool
	// Timelines holds each machine's local timeline, by nickname order.
	Timelines []*timeline.Local
	// Outcomes maps nickname to "exited", "crashed", or "killed".
	Outcomes map[string]string
}

// RunExperiment executes one experiment: reset the timeline store, start
// every auto-start node from the node file, then wait for completion or
// timeout. Dynamically entering nodes (restarts, late joiners) are the
// application's business via Runtime.StartNode during the run.
func (c *CentralDaemon) RunExperiment(nodes []spec.NodeEntry, timeout time.Duration) (*ExperimentResult, error) {
	c.rt.ResetExperiment()

	// Record the node file's placement for transport routing (frames for
	// nodes hosted by other endpoints). Merged, not replaced: a cluster
	// member passes only its local entries here but has already installed
	// the full study placement.
	c.rt.AddPlacement(nodes)

	tr := c.rt.trace.Load()
	activateStart := time.Time{}
	if tr != nil {
		activateStart = c.rt.clk.Now()
	}
	for _, e := range nodes {
		if !e.AutoStart() {
			continue
		}
		if _, err := c.rt.StartNode(e.Nickname, e.Host); err != nil {
			c.rt.KillAll()
			c.rt.Wait(time.Second)
			return nil, err
		}
	}
	if tr != nil {
		tr.Span("activate", activateStart, c.rt.clk.Now())
	}

	completed := c.rt.Wait(timeout)
	// Seal (and reap stragglers) before collecting results.
	c.rt.SealExperiment()
	if tr != nil {
		detail := "completed"
		if !completed {
			detail = "timeout"
		}
		tr.Event(c.rt.clk.Now(), obs.CatPhase, "seal", detail)
	}

	res := &ExperimentResult{Completed: completed, Outcomes: c.rt.Outcomes()}
	res.Timelines = append(res.Timelines, c.rt.Store().All()...)
	return res, nil
}
