package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// dialTimeout bounds each connection attempt.
const dialTimeout = 2 * time.Second

// TCP is the stream wire: a listener per endpoint plus one lazily-dialed
// outgoing connection per peer, length-prefixed frames, and
// reconnect-on-error. A failed write tears the connection down and retries
// once over a fresh dial; if that fails too the frame is reported lost —
// the same datagram semantics the rest of the system assumes, with the
// stream only an ordering/batching optimization underneath.
type TCP struct {
	endpoint
	listener net.Listener        // nil until bound
	conns    map[string]*tcpConn // outgoing connections, by peer address
	accepted map[net.Conn]bool
	wg       sync.WaitGroup
}

type tcpConn struct {
	mu   sync.Mutex // serializes frame writes; guards conn and buf
	conn net.Conn
	buf  []byte // the length-prefixed frame being written
}

// NewTCP creates an endpoint for topo.Local, listening on its peer-table
// address (which may name port 0; see Addr).
func NewTCP(topo Topology) (*TCP, error) {
	t := &TCP{conns: make(map[string]*tcpConn), accepted: make(map[net.Conn]bool)}
	if err := t.init(KindNameTCP, topo, t); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *TCP) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.listener = ln
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *TCP) shut() {
	t.mu.Lock()
	ln := t.listener
	conns := t.conns
	t.conns = make(map[string]*tcpConn)
	accepted := t.accepted
	t.accepted = make(map[net.Conn]bool)
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	}
	for conn := range accepted {
		conn.Close()
	}
	t.wg.Wait()
}

// send writes the frame over the cached connection to addr. Reconnect
// path: a connection that fails is evicted — and only that one, so a
// concurrent sender's fresh redial is not torn down — and the write is
// retried over a new dial once.
func (t *TCP) send(_, addr string, m Message) (int, error) {
	n, err := frameSize(m)
	if err != nil {
		return 0, err
	}
	for attempt := 0; attempt < 2; attempt++ {
		var c *tcpConn
		if c, err = t.peerConn(addr); err == nil {
			if err = c.write(m); err == nil {
				return n, nil
			}
		}
		t.dropConn(addr, c)
	}
	return 0, err
}

// write sends m, which frameSize accepts, over the connection in one
// Write of its length prefix and body, serialized per peer.
func (c *tcpConn) write(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return fmt.Errorf("transport: connection was torn down")
	}
	c.buf = appendFrame(append(c.buf[:0], 0, 0, 0, 0), m)
	binary.BigEndian.PutUint32(c.buf, uint32(len(c.buf)-4))
	_, err := c.conn.Write(c.buf)
	return err
}

// peerConn returns the cached connection to addr, dialing a new one under
// the per-address slot if needed.
func (t *TCP) peerConn(addr string) (*tcpConn, error) {
	t.mu.Lock()
	// Re-check closed under the lock: Close may have swapped the conns
	// map after SendPeer's entry check, and a dial inserted now would
	// never be closed by anyone.
	if t.closed.Load() {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: tcp endpoint %q is closed", t.topo.Local)
	}
	c := t.conns[addr]
	if c != nil {
		t.mu.Unlock()
		return c, nil
	}
	c = &tcpConn{}
	c.mu.Lock() // hold the slot while dialing outside t.mu
	t.conns[addr] = c
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		c.mu.Unlock()
		t.dropConn(addr, c)
		return nil, fmt.Errorf("transport: dialing peer: %w", err)
	}
	c.conn = conn
	c.mu.Unlock()
	return c, nil
}

// dropConn closes and forgets the cached connection to addr — but only
// if it is still the connection the caller saw fail; a concurrent
// sender's fresh redial must not be torn down by a stale eviction.
func (t *TCP) dropConn(addr string, failed *tcpConn) {
	if failed == nil {
		return
	}
	t.mu.Lock()
	if t.conns[addr] != failed {
		t.mu.Unlock()
		return
	}
	delete(t.conns, addr)
	t.mu.Unlock()
	failed.mu.Lock()
	if failed.conn != nil {
		failed.conn.Close()
		failed.conn = nil
	}
	failed.mu.Unlock()
}

func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	r := newFrameReader()
	for {
		m, n, err := r.readFrame(conn)
		if err != nil {
			return // closed, or the framing is broken: drop the connection
		}
		t.deliver(m, n)
	}
}
