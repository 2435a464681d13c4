package transport

import (
	"fmt"
	"sync"
)

// InprocNet connects in-process endpoints: the refactored form of the old
// application bus.
type InprocNet struct {
	mu        sync.Mutex
	endpoints map[string]*Inproc
}

// NewInprocNet creates an empty in-process network.
func NewInprocNet() *InprocNet {
	return &InprocNet{endpoints: make(map[string]*Inproc)}
}

// Endpoint creates the endpoint for topo.Local and joins it to the
// network. A duplicate peer name is an error.
func (n *InprocNet) Endpoint(topo Topology) (*Inproc, error) {
	ep := &Inproc{net: n}
	if err := ep.init(KindNameInproc, topo, ep); err != nil {
		return nil, err
	}
	if err := ep.bind(); err != nil {
		return nil, err
	}
	return ep, nil
}

// Inproc is the in-process wire: a frame is delivered by direct function
// call on the sender's goroutine — no serialization, no copy — which is
// why inproc stays the fast default for single-process studies.
type Inproc struct {
	endpoint
	net *InprocNet
}

// listen joins the network under the local peer name.
func (t *Inproc) listen(string) (string, error) {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	if _, dup := t.net.endpoints[t.topo.Local]; dup {
		return "", fmt.Errorf("duplicate inproc endpoint %q", t.topo.Local)
	}
	t.net.endpoints[t.topo.Local] = t
	return "", nil
}

// send calls the peer's receive side directly. Inproc frames are never
// serialized; payload length stands in for wire bytes.
func (t *Inproc) send(peer, _ string, m Message) (int, error) {
	t.net.mu.Lock()
	dst := t.net.endpoints[peer]
	t.net.mu.Unlock()
	if dst == nil {
		return 0, fmt.Errorf("transport: inproc peer %q is not on the network", peer)
	}
	dst.deliver(m, len(m.Payload))
	return len(m.Payload), nil
}

// shut leaves the network.
func (t *Inproc) shut() {
	t.net.mu.Lock()
	delete(t.net.endpoints, t.topo.Local)
	t.net.mu.Unlock()
}
