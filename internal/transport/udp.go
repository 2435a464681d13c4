package transport

import (
	"fmt"
	"net"
	"sync"
)

// UDP is the datagram wire: one socket per endpoint, one frame per
// datagram, no connection state. Loss and reordering are the network's —
// exactly the conditions the application bus already promises its users
// ("datagram semantics: the distributed system under study must tolerate
// loss").
type UDP struct {
	endpoint
	conn    *net.UDPConn            // nil until bound
	addrs   map[string]*net.UDPAddr // resolved peer addresses, by address text
	wg      sync.WaitGroup
	sendMu  sync.Mutex // guards sendBuf, the frame being sent
	sendBuf []byte
}

// NewUDP creates an endpoint for topo.Local, listening on its peer-table
// address (which may name port 0; see Addr).
func NewUDP(topo Topology) (*UDP, error) {
	t := &UDP{addrs: make(map[string]*net.UDPAddr)}
	if err := t.init(KindNameUDP, topo, t); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *UDP) listen(addr string) (string, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return "", err
	}
	t.conn = conn
	t.wg.Add(1)
	go t.readLoop(conn)
	return conn.LocalAddr().String(), nil
}

func (t *UDP) send(peer, raw string, m Message) (int, error) {
	t.mu.Lock()
	conn, addr := t.conn, t.addrs[raw]
	t.mu.Unlock()
	if conn == nil {
		return 0, fmt.Errorf("transport: udp endpoint %q not started", t.topo.Local)
	}
	if addr == nil {
		var err error
		if addr, err = net.ResolveUDPAddr("udp", raw); err != nil {
			return 0, fmt.Errorf("transport: resolving peer %q: %w", peer, err)
		}
		t.mu.Lock()
		t.addrs[raw] = addr
		t.mu.Unlock()
	}
	if _, err := frameSize(m); err != nil {
		return 0, err
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.sendBuf = appendFrame(t.sendBuf[:0], m)
	return conn.WriteToUDP(t.sendBuf, addr)
}

func (t *UDP) shut() {
	t.mu.Lock()
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	t.wg.Wait()
}

func (t *UDP) readLoop(conn *net.UDPConn) {
	defer t.wg.Done()
	r := newFrameReader()
	for {
		n, err := conn.Read(r.buf) // the sender's address is unused: no allocation for it
		if err != nil {
			return // closed
		}
		m, err := r.decode(r.buf[:n])
		if err != nil {
			continue // a damaged datagram is a lost datagram
		}
		t.deliver(m, n)
	}
}
