package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
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

	peer    string           // this endpoint's peer name
	peers   []string         // the remote peers, sorted; the peer set is fixed
	fp      string           // studyFingerprint of (c, st): what the reset barrier compares
	hosts   []string         // all hosts, sorted (cluster-wide)
	own     []string         // the hosts this member owns, sorted
	local   []spec.NodeEntry // the placement entries on hosts this member owns
	ref     string           // reference host (sorted-first, coordinator-local)
	syncSeq int              // monotonic across mini-phases: a stale pong must never match

	// align is the coordinator's per-peer process-clock alignment for the
	// current experiment: the min-RTT round's midpoint offset estimate,
	// used to rebase merged member trace lanes. Cleared each experiment.
	align map[string]memberAlign
	// answers holds gather's frame sets, one per peer of peers, pings
	// sync's round trips, and docs execute's reassembled documents; each
	// is reused call to call.
	answers [][]clusterMsg
	pings   []syncPing
	docs    []string
	// spares holds, by owner, the coordinator's spare timeline of each
	// remote node: the last one shipped, handed back by recycle once
	// analysed, which execute decodes that node's next timeline into. A
	// remote node has a key from its first timeline on; its value is nil
	// while its timeline is out.
	spares map[string]*timeline.Local
	// done is the member's done reports (reportDone), reused experiment
	// to experiment. Serve's goroutine owns it.
	done *doneReport
	// barriered records that some reset barrier completed: every member
	// is known to be up and listening.
	barriered bool
	// traceWarned dedups the member-side "coordinator wants traces but I
	// have no buffer" warning to once per process.
	traceWarned bool

	// sj is the coordinator's checkpoint binding. The in-process engines
	// hand one down; a stand-alone coordinator (lokirun -name) opens its own
	// from the campaign's Checkpoint in RunStudy.
	sj *studyJournal
	// raws is the coordinator's spent scratch (spent): its one study has
	// one runtime worker, and at most two raws queued behind it.
	raws chan *rawExperiment

	// The mailbox every protocol wait blocks in (recv): up to inboxLimit
	// frames hook decoded and queued, oldest first, and whether Quit was
	// called. hook and Quit each wake wake, a waiter on the runtime's
	// clock. names is the table hook decodes control frames through; hooks
	// run on every read loop of the transport (one per connection under
	// TCP), so it is used under mu.
	mu    sync.Mutex
	inbox []inFrame
	quit  bool
	wake  clock.Waiter
	names intern.Table

	// sendMu guards sendBuf, which every control frame, sync ping and sync
	// pong this member sends is encoded into; the transport only borrows
	// it. Lock order: under Inproc a peer's hook runs on the sending
	// goroutine and sends its pong under its own member's sendMu, never
	// this one, and no member sends to itself.
	sendMu  sync.Mutex
	sendBuf []byte
}

// NewMember builds one endpoint's runtime for the study: the campaign
// hosts owned by tr's topology get clocks here, the nodes placement puts
// on those hosts — the only ones this member runs — are registered with
// an application st.NewApp builds for this member, and a chaos engine
// attaches when the study carries action faults. Every other node is
// known here only by its placement, which routes its traffic and forwards
// its restarts to the member that owns its host.
func NewMember(c *Campaign, st *Study, tr transport.Transport) (*Member, error) {
	topo := tr.Topology()
	peers := topo.PeerNames()
	m := &Member{
		c:       c,
		st:      st,
		tr:      tr,
		peer:    topo.Local,
		peers:   peers,
		fp:      studyFingerprint(campaignFingerprint(c), st, st.Name),
		align:   make(map[string]memberAlign, len(peers)),
		answers: make([][]clusterMsg, len(peers)),
		spares:  make(map[string]*timeline.Local),
		raws:    make(chan *rawExperiment, 3),
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
			m.own = append(m.own, h.Name)
		case "":
			// An unowned host would silently never run its nodes on any
			// endpoint — and the experiment could then be accepted with
			// that machine's injections unchecked. Refuse the topology.
			rt.Shutdown()
			return nil, fmt.Errorf("campaign: cluster member %q: no peer owns host %q", m.peer, h.Name)
		}
	}
	sort.Strings(m.hosts)
	sort.Strings(m.own)
	if len(m.hosts) == 0 {
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no hosts", m.peer)
	}
	m.ref = m.hosts[0]
	if topo.Owner(m.ref) == "" {
		// Nobody owns the reference host (a typo'd ownership table): no
		// process would ever coordinate and the cluster would hang in
		// Serve. Fail fast, locally, on every member.
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no peer owns reference host %q", m.peer, m.ref)
	}
	placement := make(map[string]string, len(st.Placement))
	for _, e := range st.Placement {
		if e.Host != "" {
			placement[e.Nickname] = e.Host
			if topo.Owner(e.Host) == m.peer {
				m.local = append(m.local, e)
			}
		}
	}
	rt.SetPlacement(placement)
	if err := registerNodes(rt, c, st, func(nick string) bool { return topo.Owner(placement[nick]) == m.peer }); err != nil {
		rt.Shutdown()
		return nil, err
	}
	if chaos.HasActionFaults(st.Nodes) {
		chaos.Attach(rt, st.ChaosSeed)
	}
	m.rt = rt
	m.wake = rt.Clock().NewWaiter()
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
	m.mu.Lock()
	m.quit = true
	m.mu.Unlock()
	m.wake.Wake()
}

// inboxLimit bounds the inbox: a full one drops frames, like a lossy
// network, and their senders retry.
const inboxLimit = 256

// inFrame is one frame in the inbox, decoded: hook only borrows a frame's
// payload (transport.Handler), so it queues what the payload says.
type inFrame struct {
	kind   byte
	from   string     // the sending peer (Message.From)
	op     string     // a control frame's op (Message.State)
	toHost string     // the host whose clock a sync pong read (Message.ToHost)
	cm     clusterMsg // a control frame's payload
	pong   syncWire   // a sync pong's payload
	err    error      // why the payload did not decode
}

// hook receives the transport frames core does not consume. Sync pings
// are answered inline — they only read a clock; control frames and sync
// pongs are decoded into the inbox for the protocol loops, and any other
// frame is dropped.
func (m *Member) hook(msg transport.Message) {
	switch msg.Kind {
	case transport.KindSyncPing:
		w, err := decodeSyncWire(msg.Payload)
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
		// ToHost says which remote clock answered.
		if err := m.sendSync(msg.From, transport.Message{Kind: transport.KindSyncPong, To: msg.From, ToHost: msg.ToHost}, w); err != nil {
			m.rt.Logf("campaign: cluster %s: sync pong: %v", m.peer, err)
		}
		return
	case transport.KindCtrl, transport.KindSyncPong:
	default:
		return
	}
	in := inFrame{kind: msg.Kind, from: msg.From, op: msg.State, toHost: msg.ToHost}
	if msg.Kind == transport.KindSyncPong {
		in.pong, in.err = decodeSyncWire(msg.Payload)
	}
	m.mu.Lock()
	if msg.Kind == transport.KindCtrl {
		in.cm, in.err = decodeClusterMsg(msg.Payload, &m.names)
	}
	if len(m.inbox) < inboxLimit {
		m.inbox = append(m.inbox, in)
	}
	m.mu.Unlock()
	m.wake.Wake()
}

// startLocal starts the auto-start nodes placed on hosts this member
// owns, returning every failure joined.
func (m *Member) startLocal() error {
	m.rt.AddPlacement(m.local)
	var errs []error
	for _, e := range m.local {
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

// checkPeer fails fast on a mismatched peer: cm and err are a reset or
// resetok frame from peer as it decoded, and its sender must speak this
// protocol version and run this study. Two lokirun peers started from
// different files would otherwise merge each other's frames into one
// plausible, meaningless experiment. A payload in another layout (wireVersionError)
// comes from another protocol version, which the frame header's sender
// names, since the payload's Peer cannot be read; any other decode error
// refuses nothing — the frame is dropped like any damaged one.
func (m *Member) checkPeer(peer string, cm clusterMsg, err error) error {
	if err != nil { // tested first: errors.As's target escapes, so it costs an allocation
		var wv *wireVersionError
		if errors.As(err, &wv) {
			return m.versionRefusal(peer, wv.peerVersion())
		}
		return nil
	}
	switch {
	case cm.Version != protocolVersion:
		return m.versionRefusal(peer, strconv.Itoa(cm.Version))
	case cm.Fingerprint != m.fp:
		return fmt.Errorf("campaign: cluster %s: peer %s runs study fingerprint %s, this endpoint %s (started from different campaign files?)", m.peer, peer, cm.Fingerprint, m.fp)
	}
	return nil
}

// versionRefusal is checkPeer's refusal of a peer speaking another
// protocol version.
func (m *Member) versionRefusal(peer, version string) error {
	return fmt.Errorf("campaign: cluster %s: peer %s speaks protocol version %s, this endpoint version %d", m.peer, peer, version, protocolVersion)
}

// sendCtrl ships one protocol message op to a peer, encoded into sendBuf.
func (m *Member) sendCtrl(peer, op string, msg clusterMsg) {
	msg.Peer = m.peer
	m.sendMu.Lock()
	m.sendBuf = msg.appendWire(m.sendBuf[:0])
	err := m.tr.SendPeer(peer, transport.Message{Kind: transport.KindCtrl, From: m.peer, To: peer, State: op, Payload: m.sendBuf})
	m.sendMu.Unlock()
	if err != nil {
		m.rt.Logf("campaign: cluster %s: sending %s to %s: %v", m.peer, op, peer, err)
	}
}

// sendSync ships the sync ping or pong frame carrying w to a peer, encoded
// into sendBuf.
func (m *Member) sendSync(peer string, frame transport.Message, w syncWire) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	m.sendBuf = w.appendTo(m.sendBuf[:0])
	frame.Payload = m.sendBuf
	return m.tr.SendPeer(peer, frame)
}

// broadcastCtrl ships one protocol frame to every peer.
func (m *Member) broadcastCtrl(op string, msg clusterMsg) {
	for _, p := range m.peers {
		m.sendCtrl(p, op, msg)
	}
}

// Serve follows the coordinator's protocol until a stop frame (answered
// with stopok), Quit, or ctx cancellation. Non-coordinator members run
// this on their main goroutine. A member whose coordinator fails
// checkPeer serves nothing: it keeps answering resets with its own hello,
// so the coordinator can fail its barrier with the same diagnosis however
// many datagrams are lost, and returns the mismatch once stopped — by any
// stop frame, whether or not its payload decodes.
func (m *Member) Serve(ctx context.Context) error {
	stopWatch := onCancel(ctx, m.Quit)
	defer stopWatch()
	var (
		index     = -1 // experiment being served
		started   bool
		sup       *supervisor
		sealed    bool
		done      *doneReport // this experiment's done reports, until stopped
		resFrames []clusterMsg
		resText   []byte // the timelines' text resFrames were made of

		mtr         *obs.Trace // this member's lane for the current experiment
		startAt     time.Time
		traceFrames []clusterMsg
		metricsIdx  = -1 // index the cached metrics frames answer
		metricsFr   []clusterMsg

		refused error // the coordinator failed checkPeer
	)
	stopRun := func() { // the done reports and the supervisor
		if done != nil {
			done.stop.Wake()
			done = nil
		}
		if sup != nil {
			sup.stop()
			sup = nil
		}
	}
	defer stopRun()
	for {
		in, err := m.recv(time.Time{}, true)
		if err != nil {
			return refused
		}
		if in.kind != transport.KindCtrl {
			continue // a sync pong that straggled past its round
		}
		cm := in.cm
		if refused == nil && in.op == opReset {
			refused = m.checkPeer(in.from, cm, in.err)
		}
		if refused != nil {
			switch in.op {
			case opReset:
				m.sendCtrl(in.from, opResetOK, m.hello(cm.Index))
			case opStop:
				m.sendCtrl(in.from, opStopOK, clusterMsg{Index: cm.Index})
				return refused
			}
			continue
		}
		if in.err != nil {
			continue
		}
		switch in.op {
		case opReset:
			if cm.Index < index {
				continue // a straggler from a finished experiment; never roll back
			}
			if cm.Index > index {
				stopRun()
				m.rt.SealExperiment()
				m.rt.ResetExperiment()
				m.tr.SetEpoch(uint64(cm.Index) + 1)
				index, started, sealed, resFrames = cm.Index, false, false, resFrames[:0]
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
							"cluster %s: coordinator requests tracing but this member has no trace buffer enabled (run lokirun with -trace or -out)", m.peer)
					}
				}
			}
			m.sendCtrl(cm.Peer, opResetOK, m.hello(index))
		case opStart:
			if cm.Index != index {
				continue
			}
			// Acknowledge every copy: the coordinator re-sends start
			// until a startok (or done) shows it landed.
			m.sendCtrl(cm.Peer, opStartOK, clusterMsg{Index: index})
			if started {
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
			done = m.reportDone(cm.Peer, index)
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
				locals := m.rt.CollectTimelines()
				resFrames, resText = resultFrames(resFrames[:0], resText, m.rt.Logf, m.peer, cm.Peer, index, locals, m.rt.Outcomes())
				m.rt.RecycleTimelines(locals) // encoded: the frames hold their text
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
				traceFrames = chunkDoc(nil, docRoom(m.peer, cm.Peer, opTraceRes, clusterMsg{Index: index}), index, doc)
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
				metricsFr = chunkDoc(nil, docRoom(m.peer, cm.Peer, opMetricsRes, clusterMsg{Index: cm.Index}), cm.Index, doc)
			}
			for _, f := range metricsFr {
				m.sendCtrl(cm.Peer, opMetricsRes, f)
			}
		case opStop:
			m.sendCtrl(cm.Peer, opStopOK, clusterMsg{Index: cm.Index})
			return nil
		}
	}
}
