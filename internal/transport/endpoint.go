package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Kinds selectable by name.
const (
	KindNameInproc = "inproc"
	KindNameUDP    = "udp"
	KindNameTCP    = "tcp"
)

// ValidKind reports whether name selects a transport implementation ("" is
// inproc).
func ValidKind(name string) bool {
	switch name {
	case KindNameInproc, KindNameUDP, KindNameTCP, "":
		return true
	}
	return false
}

// Endpoint is a built-in transport endpoint: a Transport plus the shell's
// listen-address wiring, which the loopback builder uses to connect
// endpoints bound to ephemeral ports.
type Endpoint interface {
	Transport
	// Addr returns the bound listen address ("" before Start, and always
	// for inproc) — how an endpoint that listened on port 0 learns its
	// real port.
	Addr() string
	// SetPeerAddr rewrites the address of one peer the topology names; it
	// never adds a peer.
	SetPeerAddr(peer, addr string)
	bind() error
}

// New builds the endpoint of the named kind for topo.Local. net is the
// in-process network an inproc endpoint joins; the socket kinds ignore it.
func New(kind string, topo Topology, net *InprocNet) (ep Endpoint, err error) {
	switch {
	case !ValidKind(kind):
		err = fmt.Errorf("transport: unknown transport kind %q (want inproc, udp, or tcp)", kind)
	case kind == KindNameUDP:
		ep, err = NewUDP(topo)
	case kind == KindNameTCP:
		ep, err = NewTCP(topo)
	case net == nil:
		err = fmt.Errorf("transport: an inproc endpoint reaches only its own process (want udp or tcp)")
	default:
		ep, err = net.Endpoint(topo)
	}
	if err != nil {
		return nil, err // not a nil *UDP inside a non-nil interface
	}
	return ep, nil
}

// wire is the one thing the transports do differently: how a stamped
// frame reaches a peer, and how inbound ones are read (each wire's read
// loop hands them to endpoint.deliver).
type wire interface {
	// listen claims the local address and starts reading, returning the
	// address actually bound. Called once, under the endpoint's mu.
	listen(addr string) (bound string, err error)
	// send moves one frame toward the peer at addr and reports the bytes
	// it put on the wire.
	send(peer, addr string, m Message) (n int, err error)
	// shut releases what listen and send claimed and joins the read loops.
	shut()
}

// endpoint is the shell the three transports embed: every rule of the
// process boundary that does not depend on the wire — addressing, the
// epoch stamp and filter, the closed flag, traffic accounting, the handler
// slot, the listen address — is written here, once.
type endpoint struct {
	kind    string
	wire    wire
	epoch   atomic.Uint64
	closed  atomic.Bool
	om      atomic.Pointer[obs.TransportMetrics]
	handler atomic.Pointer[Handler]

	mu    sync.Mutex // guards topo.Peers, bound, addr, and the wire's tables
	topo  Topology
	peers []string // topo.PeerNames(): the peer set is fixed at init
	bound bool
	addr  string
}

func (e *endpoint) init(kind string, topo Topology, w wire) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	e.kind, e.topo, e.peers, e.wire = kind, topo, topo.PeerNames(), w
	return nil
}

// Name implements Transport.
func (e *endpoint) Name() string { return e.kind }

// Topology implements Transport.
func (e *endpoint) Topology() Topology { return e.topo }

// SetEpoch implements Transport.
func (e *endpoint) SetEpoch(epoch uint64) { e.epoch.Store(epoch) }

func (e *endpoint) setObserver(m *obs.TransportMetrics) { e.om.Store(m) }

// Start implements Transport: install the inbound handler and bind the
// wire if bind was not already called.
func (e *endpoint) Start(h Handler) error {
	e.handler.Store(&h)
	return e.bind()
}

// bind listens without installing a handler — frames arriving before
// Start are dropped. The loopback cluster builder binds every endpoint
// first so ephemeral ports can be wired into the peer tables.
func (e *endpoint) bind() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bound {
		return nil
	}
	addr, err := e.wire.listen(e.topo.Peers[e.topo.Local])
	if err != nil {
		return fmt.Errorf("transport: %s listen: %w", e.kind, err)
	}
	e.bound, e.addr = true, addr
	return nil
}

// Addr implements Endpoint.
func (e *endpoint) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addr
}

// SetPeerAddr implements Endpoint: it rewrites the address of a peer the
// topology names and never adds a peer. The wires cache routes by
// address, so a rewired peer needs no invalidation.
func (e *endpoint) SetPeerAddr(peer, addr string) {
	e.mu.Lock()
	e.topo.Peers[peer] = addr
	e.mu.Unlock()
}

// Close implements Transport.
func (e *endpoint) Close() error {
	if !e.closed.Swap(true) {
		e.wire.shut()
	}
	return nil
}

// SendHost implements Transport.
func (e *endpoint) SendHost(host string, m Message) error {
	peer := e.topo.Owner(host)
	if peer == "" {
		return fmt.Errorf("transport: no owner for host %q", host)
	}
	return e.SendPeer(peer, m)
}

// SendPeer implements Transport: stamp the epoch, hand the frame to the
// wire, account for it.
func (e *endpoint) SendPeer(peer string, m Message) error {
	if e.closed.Load() {
		return fmt.Errorf("transport: %s endpoint %q is closed", e.kind, e.topo.Local)
	}
	e.mu.Lock()
	addr, known := e.topo.Peers[peer]
	e.mu.Unlock()
	if !known {
		return fmt.Errorf("transport: unknown %s peer %q", e.kind, peer)
	}
	m.Epoch = e.epoch.Load()
	n, err := e.wire.send(peer, addr, m)
	om := e.om.Load()
	if err != nil {
		if om != nil {
			om.SendErrors.Inc()
		}
		return err
	}
	om.Sent(n)
	return nil
}

// Broadcast implements Transport.
func (e *endpoint) Broadcast(m Message) error {
	var first error
	for _, p := range e.peers {
		if err := e.SendPeer(p, m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// deliver is the receive side every wire's read path ends in: drop what a
// closed endpoint or another epoch has no business seeing (control frames
// carry the epoch protocol itself, so they pass), count, dispatch. n is
// the frame's size on the wire.
func (e *endpoint) deliver(m Message, n int) {
	if e.closed.Load() {
		return
	}
	if m.Kind != KindCtrl && m.Epoch != e.epoch.Load() {
		return
	}
	e.om.Load().Recv(n)
	if h := e.handler.Load(); h != nil {
		(*h)(m)
	}
}
