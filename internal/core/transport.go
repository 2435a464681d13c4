package core

import (
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// This file is the runtime's transport glue: when Config.Transport names
// an endpoint whose topology places some hosts in other processes, the
// runtime routes state notifications and application-bus messages for
// those hosts over the transport instead of the in-memory tables, and
// replicates chaos/netem operations so every endpoint's interposition
// layer converges. With the default single-process topology (or a nil
// transport) none of these paths are taken and the in-memory bus behaves
// exactly as before — the inproc transport *is* the old bus behind the
// new interface.
//
// Fault-hook parity across sockets: application messages are shaped by
// the SENDER's interposition layer (netem.go) before they reach the wire,
// exactly where the in-process bus shapes them, so Partition/Drop/Delay/
// Corrupt verdicts follow one code path on both transports. Chaos
// mutations are replicated to peer endpoints as KindChaos frames; until a
// replicated operation arrives (one socket flight, ~100 µs on loopback)
// the peers' shaping state trails the originator's — a real-network
// analogue of the partial-view staleness Loki's analysis already treats
// as fundamental.

func init() {
	// The default corruption envelope must survive the wire.
	gob.Register(simnet.Corrupted{})
}

// SetPlacement records which host each nickname is expected to run on —
// the node file's placement, used to route frames for nodes that live in
// another process. The central daemon installs it at experiment start;
// cluster runners install the full study placement up front.
func (r *Runtime) SetPlacement(placement map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placement = make(map[string]string, len(placement))
	for nick, host := range placement {
		r.placement[nick] = host
	}
	r.remoteNicks, r.remoteNicksOK = nil, false
}

// AddPlacement merges node-file entries into the placement map.
func (r *Runtime) AddPlacement(entries []spec.NodeEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range entries {
		if e.Host != "" {
			r.placement[e.Nickname] = e.Host
		}
	}
	r.remoteNicks, r.remoteNicksOK = nil, false
}

// Transport returns the runtime's transport endpoint (nil when the
// runtime is purely in-memory).
func (r *Runtime) Transport() transport.Transport { return r.cfg.Transport }

// SetTransportHook installs the receiver for transport frames the runtime
// itself does not consume (cluster-protocol control and clock-sync
// frames). The hook runs on the transport's read goroutine.
func (r *Runtime) SetTransportHook(hook func(m transport.Message)) {
	r.mu.Lock()
	r.transportHook = hook
	r.mu.Unlock()
}

// remoteHostFor resolves the placement host of a nickname that is not
// running locally, returning it only when the transport owns it remotely.
func (r *Runtime) remoteHostFor(nick string) (string, bool) {
	tr := r.cfg.Transport
	if tr == nil {
		return "", false
	}
	r.mu.Lock()
	host, ok := r.placement[nick]
	r.mu.Unlock()
	if !ok || tr.Topology().IsLocal(host) {
		return "", false
	}
	return host, true
}

// remoteNicknames returns the registered nicknames placed on hosts owned
// by other endpoints, sorted — broadcast order must not depend on map
// iteration, or same-seed runs would interleave remote deliveries
// differently. The list is cached (broadcasts sit on the apps' heartbeat
// paths) and recomputed only when the placement changes.
func (r *Runtime) remoteNicknames() []string {
	tr := r.cfg.Transport
	if tr == nil {
		return nil
	}
	r.mu.Lock()
	if r.remoteNicksOK {
		out := r.remoteNicks
		r.mu.Unlock()
		return out
	}
	topo := tr.Topology()
	var out []string
	for nick, host := range r.placement {
		if !topo.IsLocal(host) {
			out = append(out, nick)
		}
	}
	sort.Strings(out)
	r.remoteNicks, r.remoteNicksOK = out, true
	r.mu.Unlock()
	return out
}

// StartTransport installs the runtime as the configured transport's
// frame handler and starts it (binding sockets if the transport was not
// pre-bound). Callers that set Config.Transport must call this once
// before routing traffic; errors (an occupied port, a bad address) are
// ordinary operational failures, not panics.
func (r *Runtime) StartTransport() error {
	if r.cfg.Transport == nil {
		return nil
	}
	return r.cfg.Transport.Start(r.handleTransportMessage)
}

// handleTransportMessage dispatches one inbound frame. It runs on the
// transport's read goroutine.
func (r *Runtime) handleTransportMessage(m transport.Message) {
	if tr := r.trace.Load(); tr != nil {
		tr.Event(r.clk.Now(), obs.CatTransport, "recv "+transport.KindName(m.Kind), m.From+"->"+m.To)
	}
	switch m.Kind {
	case transport.KindNote:
		r.mu.Lock()
		target, live := r.nodes[m.To]
		r.mu.Unlock()
		if !live {
			r.cfg.Logf("core: dropping remote notification %s->%s (%s): target not executing", m.From, m.To, m.State)
			return
		}
		// Deliver on a fresh goroutine, exactly like the in-process
		// route(): remoteNotify runs the fault parser and possibly a
		// blocking application InjectFault callback, which must not
		// stall the transport's read loop (sync pings and every other
		// inbound frame ride on it). Untracked by design: socket
		// transports only run in cluster mode, which Open rejects under
		// virtual time, so quiescence tracking never sees this path.
		//lint:allow untrackedgo socket-only path, never runs under clock.Virtual
		go target.remoteNotify(stateNote{From: m.From, State: m.State})
	case transport.KindApp:
		r.mu.Lock()
		target, live := r.nodes[m.To]
		r.mu.Unlock()
		if !live {
			r.cfg.Logf("core: dropping remote app message %s->%s: target not executing", m.From, m.To)
			return
		}
		env, err := transport.DecodePayload[appPayload](m.Payload)
		if err != nil {
			r.cfg.Logf("core: dropping undecodable app message %s->%s: %v", m.From, m.To, err)
			return
		}
		target.handle.deliver(AppMessage{From: m.From, Payload: env.V}, m.From)
	case transport.KindChaos:
		op, err := transport.DecodePayload[chaosOp](m.Payload)
		if err == nil {
			err = r.applyChaosOp(op)
		}
		if err != nil {
			r.cfg.Logf("core: chaos op %q from a peer not applied here: %v", op.Op, err)
		}
	default:
		r.mu.Lock()
		hook := r.transportHook
		r.mu.Unlock()
		if hook != nil {
			hook(m)
		}
	}
}

// sendRemoteNote routes a state notification to the endpoint owning host.
func (r *Runtime) sendRemoteNote(host string, note stateNote, to string) {
	m := transport.Message{
		Kind:   transport.KindNote,
		From:   note.From,
		To:     to,
		ToHost: host,
		State:  note.State,
	}
	if tr := r.trace.Load(); tr != nil {
		tr.Event(r.clk.Now(), obs.CatTransport, "send note", note.From+"->"+to)
	}
	if err := r.cfg.Transport.SendHost(host, m); err != nil {
		r.cfg.Logf("core: remote notification %s->%s: %v", note.From, to, err)
	}
}

// sendRemoteApp ships an application-bus message to the endpoint owning
// toHost. The payload was already shaped by the local interposition layer.
func (r *Runtime) sendRemoteApp(fromNick, fromHost, to, toHost string, payload interface{}) {
	body, err := transport.EncodePayload(appPayload{V: payload})
	if err != nil {
		r.cfg.Logf("core: app message %s->%s not encodable for transport: %v", fromNick, to, err)
		return
	}
	m := transport.Message{
		Kind:     transport.KindApp,
		From:     fromNick,
		FromHost: fromHost,
		To:       to,
		ToHost:   toHost,
		Payload:  body,
	}
	if err := r.cfg.Transport.SendHost(toHost, m); err != nil {
		r.cfg.Logf("core: remote app message %s->%s: %v", fromNick, to, err)
	}
}

// appPayload is the gob envelope of an application-bus payload. Concrete
// payload types must be gob-registered by the application (the built-in
// apps do so in their init functions).
type appPayload struct{ V interface{} }

// chaosOp is one interposition-layer or host mutation, in the one form it
// is built, applied (applyChaosOp) and sent to other endpoints in.
// Filter-carrying ops describe the built-in filters by value; a custom
// Filter implementation cannot cross the wire and stays endpoint-local
// (InstallLinkFilter warns).
type chaosOp struct {
	Op string // partition, heal, healall, filter, unfilter, clockstep, crashhost, reboothost, startnode
	A  string // host / link from
	B  string // host / link to
	ID string // filter id

	// Filter description for Op == "filter".
	FilterKind string // drop, delay, duplicate, corrupt
	P          float64
	Extra      int64
	Jitter     int64
	Copies     int
	// filter is the filter itself at the endpoint that built the op; gob
	// skips it, and a receiving endpoint rebuilds one from the description.
	filter simnet.Filter

	// Clock step for Op == "clockstep".
	Delta int64

	// Node start for Op == "startnode".
	Nick string
}

// describeFilter fills in op's wire description of a built-in simnet
// filter, reporting false for one that cannot cross the wire.
func describeFilter(op *chaosOp, f simnet.Filter) bool {
	switch ft := f.(type) {
	case simnet.DropFilter:
		op.FilterKind, op.P = "drop", ft.P
	case simnet.DelayFilter:
		op.FilterKind, op.Extra, op.Jitter = "delay", int64(ft.Extra), int64(ft.Jitter)
	case simnet.DuplicateFilter:
		op.FilterKind, op.P, op.Copies = "duplicate", ft.P, ft.Copies
	case simnet.CorruptFilter:
		if ft.Corrupt != nil {
			return false // custom corruptors cannot cross the wire
		}
		op.FilterKind, op.P = "corrupt", ft.P
	default:
		return false
	}
	return true
}

// filterFromWire rebuilds a built-in filter from its wire description.
func filterFromWire(op chaosOp) (simnet.Filter, error) {
	switch op.FilterKind {
	case "drop":
		return simnet.DropFilter{P: op.P}, nil
	case "delay":
		return simnet.DelayFilter{Extra: vclock.Ticks(op.Extra), Jitter: vclock.Ticks(op.Jitter)}, nil
	case "duplicate":
		return simnet.DuplicateFilter{P: op.P, Copies: op.Copies}, nil
	case "corrupt":
		return simnet.CorruptFilter{P: op.P}, nil
	}
	return nil, fmt.Errorf("core: unknown wire filter kind %q", op.FilterKind)
}

// hasPeers reports whether the runtime's transport reaches other
// endpoints.
func (r *Runtime) hasPeers() bool {
	tr := r.cfg.Transport
	return tr != nil && len(tr.Topology().PeerNames()) > 0
}

// replicate applies a link mutation here and on every peer endpoint, so
// traffic originating anywhere on the testbed is shaped alike. The
// returned error is the local one; unreachable peers are logged.
func (r *Runtime) replicate(op chaosOp) error {
	err := r.applyChaosOp(op)
	if r.hasPeers() {
		if serr := r.sendChaos("", op); serr != nil {
			r.cfg.Logf("core: replicating chaos op %q: %v", op.Op, serr)
		}
	}
	return err
}

// onHost performs a host-targeted op (clockstep, crashhost, reboothost)
// where its host op.A lives: here, or at the endpoint that owns it.
func (r *Runtime) onHost(op chaosOp) error {
	if r.HostClock(op.A) != nil {
		return r.applyChaosOp(op)
	}
	return r.forwardChaos(op)
}

// forwardChaos sends a host-targeted op to the endpoint owning op.A; a
// host no other endpoint owns is an unknown host.
func (r *Runtime) forwardChaos(op chaosOp) error {
	if tr := r.cfg.Transport; tr == nil || tr.Topology().IsLocal(op.A) {
		return fmt.Errorf("core: unknown host %q", op.A)
	}
	return r.sendChaos(op.A, op)
}

// sendChaos ships op as a KindChaos frame to the endpoint owning host, or
// to every peer endpoint when host is "".
func (r *Runtime) sendChaos(host string, op chaosOp) error {
	body, err := transport.EncodePayload(op)
	if err != nil {
		return err
	}
	m := transport.Message{Kind: transport.KindChaos, ToHost: host, Payload: body}
	if host == "" {
		return r.cfg.Transport.Broadcast(m)
	}
	return r.cfg.Transport.SendHost(host, m)
}

// applyChaosOp performs one mutation on this endpoint's own state — the
// single definition of every op, whether it was built here or arrived in
// a frame. It never sends: a host-targeted op whose host is not local
// here fails with "unknown host" (and is logged by the frame handler)
// rather than being forwarded again, so two endpoints with disagreeing
// ownership tables produce a diagnostic, not an unbounded frame loop
// bouncing the op between them.
func (r *Runtime) applyChaosOp(op chaosOp) error {
	ne := r.netem
	link := simnet.Link{From: op.A, To: op.B}
	switch op.Op {
	case "partition":
		ne.mu.Lock()
		ne.partitions[hostPair(op.A, op.B)] = true
		ne.shaping.Store(1)
		ne.mu.Unlock()
	case "heal":
		ne.mu.Lock()
		delete(ne.partitions, hostPair(op.A, op.B))
		ne.mu.Unlock()
	case "healall":
		ne.mu.Lock()
		ne.partitions = make(map[[2]string]bool)
		ne.mu.Unlock()
	case "filter":
		f := op.filter
		if f == nil {
			var err error
			if f, err = filterFromWire(op); err != nil {
				return err
			}
		}
		ne.mu.Lock()
		ne.filters.Install(link, op.ID, f)
		ne.shaping.Store(1)
		ne.mu.Unlock()
	case "unfilter":
		ne.mu.Lock()
		removed := ne.filters.Remove(link, op.ID)
		ne.mu.Unlock()
		if !removed {
			return fmt.Errorf("core: no filter %q on link %s->%s", op.ID, op.A, op.B)
		}
	case "clockstep":
		c := r.HostClock(op.A)
		if c == nil {
			return fmt.Errorf("core: unknown host %q", op.A)
		}
		c.Step(vclock.Ticks(op.Delta))
	case "crashhost", "reboothost":
		return r.setHostDown(op.A, op.Op == "crashhost")
	case "startnode":
		if r.HostClock(op.A) == nil {
			return fmt.Errorf("core: unknown host %q", op.A) // StartNode would forward
		}
		_, err := r.StartNode(op.Nick, op.A)
		return err
	default:
		return fmt.Errorf("core: unknown chaos op %q", op.Op)
	}
	return nil
}
