package loki

import "repro/internal/transport"

// Pluggable transport layer: the same studies run on the in-memory bus
// (the fast default), over UDP datagrams, or over TCP streams with
// length-prefixed framing — within one process (loopback clusters, one
// runtime per host) or across real OS processes (lokirun -name -listen).
type (
	// Transport moves host-addressed frames between daemon endpoints.
	Transport = transport.Transport
	// TransportTopology says which peer endpoint owns which virtual host.
	TransportTopology = transport.Topology
)

// Transport kind names accepted by Study.Transport and the cluster
// builders.
const (
	TransportInproc = transport.KindNameInproc
	TransportUDP    = transport.KindNameUDP
	TransportTCP    = transport.KindNameTCP
)

// NewLoopbackCluster builds one connected transport endpoint per peer of
// the hosts→peer mapping, over 127.0.0.1 ephemeral ports (or direct
// calls, for inproc).
func NewLoopbackCluster(kind string, hosts map[string]string) (map[string]Transport, error) {
	return transport.NewLoopbackCluster(kind, hosts)
}
