package transport

import "fmt"

// Loopback cluster builder: one endpoint per peer, sockets bound to
// ephemeral 127.0.0.1 ports and wired together after everyone has
// listened. This is the "multi-process on one machine" topology used by
// the campaign's clustered runner and the acceptance tests; real
// multi-machine deployments construct endpoints from explicit addresses
// (see cmd/lokid's -listen/-peers flags).

// clusterTopology builds the per-peer topologies for a hosts→peer mapping,
// with placeholder loopback addresses.
func clusterTopology(local string, hosts map[string]string) Topology {
	topo := Topology{Local: local, Peers: map[string]string{}, Hosts: map[string]string{}}
	for h, p := range hosts {
		topo.Hosts[h] = p
		topo.Peers[p] = "127.0.0.1:0"
	}
	return topo
}

// NewLoopbackCluster builds one transport per peer named in the
// hosts→peer mapping, connected over 127.0.0.1 (or directly, for inproc).
// Endpoints are bound here so ephemeral ports can be wired into every
// peer table; callers still call Start on each endpoint to install its
// handler. kind is "inproc", "udp", or "tcp" ("" means inproc).
func NewLoopbackCluster(kind string, hosts map[string]string) (map[string]Transport, error) {
	peers := clusterTopology("", hosts).PeerNames()
	if len(peers) == 0 {
		return nil, fmt.Errorf("transport: loopback cluster with no peers")
	}
	net := NewInprocNet()
	eps := make(map[string]Endpoint, len(peers))
	out := make(map[string]Transport, len(peers))
	for _, p := range peers {
		ep, err := New(kind, clusterTopology(p, hosts), net)
		if err == nil {
			err = ep.bind()
		}
		if err != nil {
			for _, t := range out {
				t.Close()
			}
			return nil, err
		}
		eps[p], out[p] = ep, ep
	}
	for _, ep := range eps {
		for q, qep := range eps {
			ep.SetPeerAddr(q, qep.Addr())
		}
	}
	return out, nil
}
