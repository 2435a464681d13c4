package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/transport"
)

// Member is one endpoint of a clustered study: a private runtime hosting
// the locally-owned virtual hosts, listening on its transport. The
// coordinator member drives the protocol (RunStudy); the others
// follow (Serve).
type Member struct {
	c  *Campaign
	st *Study
	tr transport.Transport
	rt *core.Runtime

	peer    string   // this endpoint's peer name
	fp      string   // studyFingerprint of (c, st): what the reset barrier compares
	hosts   []string // all hosts, sorted (cluster-wide)
	ref     string   // reference host (sorted-first, coordinator-local)
	syncSeq int      // monotonic across mini-phases: a stale pong must never match

	// align is the coordinator's per-peer process-clock alignment for the
	// current experiment: the min-RTT round's midpoint offset estimate,
	// used to rebase merged member trace lanes. Reset each experiment.
	align map[string]memberAlign
	// barriered records that some reset barrier completed: every member
	// is known to be up and listening.
	barriered bool
	// traceWarned dedups the member-side "coordinator wants traces but I
	// have no buffer" warning to once per process.
	traceWarned bool

	// sj is the coordinator's checkpoint binding. The in-process engines
	// hand one down; a stand-alone coordinator (cmd/lokid) opens its own
	// from the campaign's Checkpoint in RunStudy.
	sj *studyJournal

	inbox    chan transport.Message
	quit     chan struct{} // closed by Quit; unblocks Serve without a frame
	quitOnce sync.Once
}

// NewMember builds one endpoint's runtime for the study: the campaign
// hosts owned by tr's topology get clocks here, every node definition is
// registered (placement says which ones run here), and a chaos engine
// attaches when the study carries action faults.
func NewMember(c *Campaign, st *Study, tr transport.Transport) (*Member, error) {
	topo := tr.Topology()
	m := &Member{
		c:     c,
		st:    st,
		tr:    tr,
		peer:  topo.Local,
		fp:    studyFingerprint(c, st, st.Name),
		inbox: make(chan transport.Message, 256),
		quit:  make(chan struct{}),
	}

	cfg := c.Runtime
	cfg.Transport = tr
	cfg.Obs = c.Obs
	transport.SetObserver(tr, c.Obs.TransportMetrics(tr.Name()))
	rt := core.New(cfg)
	for _, h := range c.Hosts {
		m.hosts = append(m.hosts, h.Name)
		switch topo.Owner(h.Name) {
		case topo.Local:
			rt.AddHost(h.Name, h.Clock)
		case "":
			// An unowned host would silently never run its nodes on any
			// endpoint — and the experiment could then be accepted with
			// that machine's injections unchecked. Refuse the topology.
			rt.Shutdown()
			return nil, fmt.Errorf("campaign: cluster member %q: no peer owns host %q", m.peer, h.Name)
		}
	}
	sort.Strings(m.hosts)
	if len(m.hosts) == 0 {
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no hosts", m.peer)
	}
	m.ref = m.hosts[0]
	for _, def := range st.Nodes {
		if err := rt.Register(def); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	placement := make(map[string]string, len(st.Placement))
	for _, e := range st.Placement {
		if e.Host != "" {
			placement[e.Nickname] = e.Host
		}
	}
	rt.SetPlacement(placement)
	if chaos.HasActionFaults(st.Nodes) {
		if err := chaos.ValidateSpecs(st.Nodes, m.hosts); err != nil {
			rt.Shutdown()
			return nil, err
		}
		chaos.Attach(rt, st.ChaosSeed)
	}
	if topo.Owner(m.ref) == "" {
		// Nobody owns the reference host (a typo'd ownership table): no
		// process would ever coordinate and the cluster would hang in
		// Serve. Fail fast, locally, on every member.
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no peer owns reference host %q", m.peer, m.ref)
	}
	m.rt = rt
	rt.SetTransportHook(m.hook)
	if err := rt.StartTransport(); err != nil {
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: %w", m.peer, err)
	}
	return m, nil
}

// Coordinator reports whether this member owns the reference host and so
// must drive the protocol with RunStudy.
func (m *Member) Coordinator() bool { return m.tr.Topology().Owner(m.ref) == m.peer }

// Close shuts the member's runtime down (the transport stays the
// caller's to close).
func (m *Member) Close() { m.rt.Shutdown() }

// Quit unblocks Serve without a stop frame — the in-process runner's
// shutdown path, where a lost datagram must not wedge the study.
func (m *Member) Quit() {
	m.quitOnce.Do(func() { close(m.quit) })
}

// quitOnCancel quits the member when ctx is cancelled; the returned stop
// function joins the watch.
func (m *Member) quitOnCancel(ctx context.Context) (stop func()) {
	return onCancel(ctx, m.Quit)
}

// hook receives the transport frames core does not consume. Sync pings
// are answered inline — they only read a clock; everything else lands in
// the inbox for the protocol loops.
func (m *Member) hook(msg transport.Message) {
	if msg.Kind == transport.KindSyncPing {
		w, err := transport.DecodePayload[syncWire](msg.Payload)
		if err != nil {
			return
		}
		clk := m.rt.HostClock(msg.ToHost)
		if clk == nil {
			return
		}
		w.RemoteRecv = int64(clk.Now())
		w.ProcRecv = m.rt.Clock().Now().UnixNano()
		w.RemoteSend = int64(clk.Now())
		w.ProcSend = m.rt.Clock().Now().UnixNano()
		body, err := transport.EncodePayload(w)
		if err == nil {
			// ToHost says which remote clock answered.
			err = m.tr.SendPeer(msg.From, transport.Message{Kind: transport.KindSyncPong, To: msg.From, ToHost: msg.ToHost, Payload: body})
		}
		if err != nil {
			m.rt.Logf("campaign: cluster %s: sync pong: %v", m.peer, err)
		}
		return
	}
	select {
	case m.inbox <- msg:
	default: // a full inbox behaves like a lossy network; senders retry
	}
}

// startLocal starts the auto-start nodes placed on hosts this member
// owns, returning every failure joined.
func (m *Member) startLocal() error {
	topo := m.tr.Topology()
	var local []spec.NodeEntry
	for _, e := range m.st.Placement {
		if e.Host != "" && topo.Owner(e.Host) == m.peer {
			local = append(local, e)
		}
	}
	m.rt.AddPlacement(local)
	var errs []error
	for _, e := range local {
		if !e.AutoStart() {
			continue
		}
		if _, err := m.rt.StartNode(e.Nickname, e.Host); err != nil {
			errs = append(errs, fmt.Errorf("starting %s: %w", e.Nickname, err))
		}
	}
	return errors.Join(errs...)
}

// hello is the part of a reset or resetok frame that says what this
// endpoint is running.
func (m *Member) hello(index int) clusterMsg {
	return clusterMsg{Index: index, Version: protocolVersion, Fingerprint: m.fp}
}

// checkPeer fails fast on a mismatched peer: cm is a reset or resetok
// frame, and its sender must speak this protocol version and run this
// study. Two lokids started from different files would otherwise merge
// each other's frames into one plausible, meaningless experiment.
func (m *Member) checkPeer(cm clusterMsg) error {
	if cm.Version != protocolVersion {
		return fmt.Errorf("campaign: cluster %s: peer %s speaks protocol version %d, this endpoint version %d", m.peer, cm.Peer, cm.Version, protocolVersion)
	}
	if cm.Fingerprint != m.fp {
		return fmt.Errorf("campaign: cluster %s: peer %s runs study fingerprint %s, this endpoint %s (started from different campaign files?)", m.peer, cm.Peer, cm.Fingerprint, m.fp)
	}
	return nil
}

// sendCtrl ships one protocol frame to a peer.
func (m *Member) sendCtrl(peer, op string, msg clusterMsg) {
	msg.Peer = m.peer
	body, err := transport.EncodePayload(msg)
	if err == nil {
		err = m.tr.SendPeer(peer, transport.Message{Kind: transport.KindCtrl, From: m.peer, To: peer, State: op, Payload: body})
	}
	if err != nil {
		m.rt.Logf("campaign: cluster %s: sending %s to %s: %v", m.peer, op, peer, err)
	}
}

// broadcastCtrl ships one protocol frame to every peer.
func (m *Member) broadcastCtrl(op string, msg clusterMsg) {
	for _, p := range m.tr.Topology().PeerNames() {
		m.sendCtrl(p, op, msg)
	}
}

// Serve follows the coordinator's protocol until a stop frame, Quit, or
// ctx cancellation. Non-coordinator members run this on their main
// goroutine. A member whose coordinator fails checkPeer serves nothing: it
// keeps answering resets with its own hello, so the coordinator can fail
// its barrier with the same diagnosis however many datagrams are lost,
// and returns the mismatch once stopped.
func (m *Member) Serve(ctx context.Context) error {
	stopWatch := m.quitOnCancel(ctx)
	defer stopWatch()
	var (
		index     = -1 // experiment being served
		started   bool
		sup       *supervisor
		sealed    bool
		doneQuit  chan struct{}
		resFrames []clusterMsg

		mtr         *obs.Trace // this member's lane for the current experiment
		startAt     time.Time
		traceFrames []clusterMsg
		metricsIdx  = -1 // index the cached metrics frames answer
		metricsFr   []clusterMsg

		refused error // the coordinator failed checkPeer
	)
	stopRun := func() { // the done reports and the supervisor
		if doneQuit != nil {
			close(doneQuit)
			doneQuit = nil
		}
		if sup != nil {
			sup.stop()
			sup = nil
		}
	}
	defer stopRun()
	for {
		var msg transport.Message
		select {
		case msg = <-m.inbox:
		case <-m.quit:
			return refused
		}
		cm, err := transport.DecodePayload[clusterMsg](msg.Payload)
		if err != nil {
			continue
		}
		if refused != nil && msg.State != opReset && msg.State != opStop {
			continue
		}
		switch msg.State {
		case opReset:
			if refused == nil {
				refused = m.checkPeer(cm)
			}
			if refused != nil {
				m.sendCtrl(cm.Peer, opResetOK, m.hello(cm.Index))
				continue
			}
			if cm.Index < index {
				continue // a straggler from a finished experiment; never roll back
			}
			if cm.Index > index {
				stopRun()
				m.rt.SealExperiment()
				m.rt.ResetExperiment()
				m.tr.SetEpoch(uint64(cm.Index) + 1)
				index, started, sealed, resFrames = cm.Index, false, false, nil
				// Fresh trace lane for the new experiment, when the
				// coordinator will pull one and we can record one.
				m.rt.SetTrace(nil)
				mtr, startAt, traceFrames = nil, time.Time{}, nil
				if cm.TraceOn {
					if m.c.Obs.CapturesTraces() {
						mtr = obs.NewTrace(cm.Point, cm.Index)
						m.rt.SetTrace(mtr)
					} else if !m.traceWarned {
						m.traceWarned = true
						m.c.Obs.Logf(obs.Warn, "campaign",
							"cluster %s: coordinator requests tracing but this member has no trace buffer enabled (run lokid with -trace or -out)", m.peer)
					}
				}
			}
			m.sendCtrl(cm.Peer, opResetOK, m.hello(index))
		case opStart:
			if cm.Index != index || started {
				continue
			}
			started = true
			if mtr != nil {
				startAt = m.rt.Clock().Now()
			}
			if m.st.Restarts != nil {
				sup = startSupervisor(m.rt, *m.st.Restarts)
			}
			if err := m.startLocal(); err != nil {
				m.rt.Logf("campaign: cluster %s: %v", m.peer, err)
			}
			// Report completion, and keep reporting until sealed: the
			// datagram may be lost.
			doneQuit = make(chan struct{})
			go m.reportDone(cm.Peer, index, doneQuit)
		case opSeal:
			if cm.Index != index {
				continue
			}
			if !sealed {
				sealed = true
				stopRun()
				m.rt.SealExperiment()
				if mtr != nil {
					if !startAt.IsZero() {
						mtr.Span("experiment", startAt, m.rt.Clock().Now())
					}
					m.rt.SetTrace(nil) // the lane is final; stop recording
				}
				resFrames = resultFrames(m.rt.Logf, index, snapshotTimelines(m.rt.Store().All()), m.rt.Outcomes())
			}
			for _, f := range resFrames {
				m.sendCtrl(cm.Peer, opResult, f)
			}
		case opTrace:
			// The lane is only final after seal; an early pull (frame
			// reorder) is ignored and the coordinator's retry rides it out.
			if cm.Index != index || !sealed {
				continue
			}
			if traceFrames == nil {
				doc, err := mtr.EncodeString() // nil lane encodes to ""
				if err != nil {
					m.rt.Logf("campaign: cluster %s: encoding trace: %v", m.peer, err)
					doc = ""
				}
				traceFrames = chunkDoc(index, doc)
			}
			for _, f := range traceFrames {
				m.sendCtrl(cm.Peer, opTraceRes, f)
			}
		case opMetrics:
			// Snapshot once per requested index so retried pulls always see
			// the same chunk set (a mid-collection change in Total would
			// corrupt reassembly). Local series only: imported snapshots
			// must never bounce back to the coordinator.
			if metricsFr == nil || metricsIdx != cm.Index {
				doc := ""
				if m.c.Obs != nil && m.c.Obs.Metrics != nil {
					if b, err := json.Marshal(m.c.Obs.Metrics.LocalSnapshot()); err == nil {
						doc = string(b)
					}
				}
				metricsIdx = cm.Index
				metricsFr = chunkDoc(cm.Index, doc)
			}
			for _, f := range metricsFr {
				m.sendCtrl(cm.Peer, opMetricsRes, f)
			}
		case opStop:
			return refused
		}
	}
}
