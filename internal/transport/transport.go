// Package transport is the pluggable message layer between Loki daemon
// processes. The thesis's chosen design routes every state-machine
// notification through the local daemons over IPC and TCP (§3.4.2); the
// reproduction virtualized that path as direct in-memory calls inside one
// process. This package restores the real boundary: a Transport carries
// host-addressed frames — state notifications, application-bus messages,
// chaos control operations, and clock-synchronization pings — between
// endpoints, where an endpoint is one OS process hosting a subset of the
// testbed's virtual hosts.
//
// There is one endpoint and three wires. Everything the process boundary
// decides — which peer owns a host, the epoch stamp and filter, what a
// closed endpoint refuses, what is counted, where inbound frames go, the
// listen address and the peer address table — is written once, in the
// shell every built-in transport embeds (endpoint.go). A wire supplies
// only how a frame reaches a peer:
//
//   - Inproc: a direct function call on the sender's goroutine; every
//     endpoint lives in this process and nothing is serialized. This is
//     the fast default; single-process studies pay no new cost.
//   - UDP: one datagram socket per endpoint, one frame per datagram.
//   - TCP: a listener plus lazily-dialed peer connections with
//     length-prefixed framing and reconnect-on-error.
//
// Structured frame bodies share one gob codec (payload.go), whatever they
// carry.
//
// Lifecycle is tied to experiment epochs: SetEpoch stamps outgoing frames
// and inbound frames from another epoch are dropped (control frames are
// exempt — they carry the epoch protocol itself). A frame from experiment
// k that lingers in a socket buffer cannot leak into experiment k+1, the
// socket equivalent of core's experiment-scoped timers.
package transport

import (
	"fmt"
	"sort"
)

// Frame kinds.
const (
	// KindNote is a state-change notification (core's stateNote).
	KindNote byte = iota + 1
	// KindApp is an application-bus message; Payload is the gob-encoded
	// payload envelope.
	KindApp
	// KindChaos is a replicated chaos/netem operation (partition, filter,
	// clockstep, host fail); epoch-filtered like data frames.
	KindChaos
	// KindCtrl is a cluster-protocol control frame (reset/start/seal/...).
	// Control frames bypass the epoch filter: they carry the epoch
	// protocol itself.
	KindCtrl
	// KindSyncPing and KindSyncPong carry the clock-synchronization
	// mini-phase round trips of §2.3 across process boundaries.
	KindSyncPing
	KindSyncPong
)

// Message is one frame crossing the transport.
type Message struct {
	// Epoch is the experiment epoch the frame belongs to. Stamped by the
	// transport at send time; frames from another epoch are dropped on
	// receipt (KindCtrl excepted).
	Epoch uint64
	// Kind discriminates the frame.
	Kind byte
	// From and To are state-machine nicknames for KindNote/KindApp, and
	// peer names for control traffic.
	From, To string
	// FromHost and ToHost are virtual host names: FromHost is where the
	// frame originated (the interposition layer's link source), ToHost
	// addresses the frame.
	FromHost, ToHost string
	// State is the new state for KindNote.
	State string
	// Payload is the frame body for the other kinds.
	Payload []byte
}

// Handler receives inbound frames. It runs on the transport's read
// goroutine: implementations must not block for long.
type Handler func(m Message)

// Topology says who is where: this endpoint's peer name, every peer's
// address, and which peer owns each virtual host.
type Topology struct {
	// Local is this endpoint's peer name.
	Local string
	// Peers maps peer name to transport address ("127.0.0.1:7001"). The
	// local peer's entry is its listen address. Inproc ignores addresses.
	Peers map[string]string
	// Hosts maps virtual host name to owning peer name.
	Hosts map[string]string
}

// Validate checks the topology is self-consistent.
func (t Topology) Validate() error {
	if t.Local == "" {
		return fmt.Errorf("transport: topology has no local peer name")
	}
	if _, ok := t.Peers[t.Local]; !ok {
		return fmt.Errorf("transport: local peer %q not in peer table", t.Local)
	}
	for h, p := range t.Hosts {
		if _, ok := t.Peers[p]; !ok {
			return fmt.Errorf("transport: host %q owned by unknown peer %q", h, p)
		}
	}
	return nil
}

// Owner returns the peer owning the named host ("" if unknown).
func (t Topology) Owner(host string) string { return t.Hosts[host] }

// IsLocal reports whether the named host is served by this endpoint.
// Unknown hosts are reported local, preserving single-process semantics
// (the runtime then applies its own unknown-host handling).
func (t Topology) IsLocal(host string) bool {
	p, ok := t.Hosts[host]
	return !ok || p == t.Local
}

// PeerNames returns the remote peer names, sorted.
func (t Topology) PeerNames() []string {
	out := make([]string, 0, len(t.Peers))
	for p := range t.Peers {
		if p != t.Local {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Transport moves frames between endpoints.
type Transport interface {
	// Name identifies the implementation: "inproc", "udp", or "tcp".
	Name() string
	// Start begins listening and delivering inbound frames to h.
	Start(h Handler) error
	// SendHost routes m to the endpoint owning the named host. Delivery
	// is best-effort with datagram semantics: the distributed system
	// under study must tolerate loss.
	SendHost(host string, m Message) error
	// SendPeer sends m directly to the named peer endpoint.
	SendPeer(peer string, m Message) error
	// Broadcast sends m to every remote peer.
	Broadcast(m Message) error
	// Topology returns the endpoint's view of who is where.
	Topology() Topology
	// SetEpoch moves the endpoint to a new experiment epoch: outgoing
	// frames are stamped with it, inbound non-control frames from any
	// other epoch are dropped.
	SetEpoch(e uint64)
	// Close tears down listeners and connections. The transport cannot
	// be restarted.
	Close() error
}
