package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	in := Message{
		Epoch:    42,
		Kind:     KindApp,
		From:     "black",
		FromHost: "h1",
		To:       "green",
		ToHost:   "h2",
		State:    "LEAD",
		Payload:  []byte("hello, wire"),
	}
	body, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.Kind != in.Kind || out.From != in.From ||
		out.FromHost != in.FromHost || out.To != in.To || out.ToHost != in.ToHost ||
		out.State != in.State || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
	}
	// Empty message round-trips too.
	body, err = Marshal(Message{Kind: KindNote})
	if err != nil {
		t.Fatal(err)
	}
	if out, err = Unmarshal(body); err != nil || out.Kind != KindNote {
		t.Fatalf("empty round trip: %v %+v", err, out)
	}
}

func TestFrameTruncation(t *testing.T) {
	body, err := Marshal(Message{Kind: KindApp, From: "a", Payload: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := Unmarshal(body[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(body))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := Marshal(Message{Payload: make([]byte, MaxFrame)}); err == nil {
		t.Fatal("oversized frame not rejected")
	}
}

// collector accumulates received messages behind a lock.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]Message(nil), c.msgs...)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages (have %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

var clusterHosts = map[string]string{"h1": "alpha", "h2": "beta", "h3": "beta"}

func testCluster(t *testing.T, kind string) (map[string]Transport, map[string]*collector) {
	t.Helper()
	eps, err := NewLoopbackCluster(kind, clusterHosts)
	if err != nil {
		t.Fatal(err)
	}
	cols := make(map[string]*collector)
	for name, ep := range eps {
		col := &collector{}
		cols[name] = col
		if err := ep.Start(col.handle); err != nil {
			t.Fatal(err)
		}
		ep.SetEpoch(1)
		t.Cleanup(func() { ep.Close() })
	}
	return eps, cols
}

func testHostAddressing(t *testing.T, kind string) {
	eps, cols := testCluster(t, kind)
	a, b := eps["alpha"], eps["beta"]

	if err := a.SendHost("h2", Message{Kind: KindNote, From: "black", To: "green", State: "LEAD"}); err != nil {
		t.Fatal(err)
	}
	got := cols["beta"].wait(t, 1, 2*time.Second)
	if got[0].State != "LEAD" || got[0].To != "green" || got[0].Epoch != 1 {
		t.Fatalf("bad frame: %+v", got[0])
	}

	if err := b.SendHost("h1", Message{Kind: KindApp, Payload: []byte("pong")}); err != nil {
		t.Fatal(err)
	}
	got = cols["alpha"].wait(t, 1, 2*time.Second)
	if string(got[0].Payload) != "pong" {
		t.Fatalf("bad payload: %+v", got[0])
	}

	if err := a.SendHost("nowhere", Message{}); err == nil {
		t.Fatal("unknown host not rejected")
	}
	if err := a.SendPeer("gamma", Message{Kind: KindNote}); err == nil {
		t.Fatal("unknown peer not rejected")
	}

	// Send after Close: refused at the sender, and a closed receiver
	// drops what still reaches it.
	before := len(cols["alpha"].wait(t, 1, 2*time.Second))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendHost("h2", Message{Kind: KindNote}); err == nil {
		t.Fatal("send after Close not rejected")
	}
	_ = b.SendHost("h1", Message{Kind: KindCtrl, State: "late"}) // a socket wire may report the dead peer
	time.Sleep(20 * time.Millisecond)
	cols["alpha"].mu.Lock()
	defer cols["alpha"].mu.Unlock()
	if got := len(cols["alpha"].msgs); got != before {
		t.Fatalf("closed endpoint delivered %d frame(s)", got-before)
	}
}

func testEpochFilter(t *testing.T, kind string) {
	eps, cols := testCluster(t, kind)
	a := eps["alpha"]

	// Same epoch: delivered.
	if err := a.SendHost("h2", Message{Kind: KindNote, State: "S1"}); err != nil {
		t.Fatal(err)
	}
	cols["beta"].wait(t, 1, 2*time.Second)

	// Sender moved to epoch 2, receiver still at 1: dropped.
	a.SetEpoch(2)
	if err := a.SendHost("h2", Message{Kind: KindNote, State: "stale"}); err != nil {
		t.Fatal(err)
	}
	// Control frames bypass the filter.
	if err := a.SendHost("h2", Message{Kind: KindCtrl, State: "ctrl"}); err != nil {
		t.Fatal(err)
	}
	got := cols["beta"].wait(t, 2, 2*time.Second)
	for _, m := range got {
		if m.State == "stale" {
			t.Fatalf("stale-epoch frame delivered: %+v", m)
		}
	}
	if got[len(got)-1].Kind != KindCtrl {
		t.Fatalf("control frame missing: %+v", got)
	}
}

func TestInprocHostAddressing(t *testing.T) { testHostAddressing(t, KindNameInproc) }
func TestUDPHostAddressing(t *testing.T)    { testHostAddressing(t, KindNameUDP) }
func TestTCPHostAddressing(t *testing.T)    { testHostAddressing(t, KindNameTCP) }

func TestInprocEpochFilter(t *testing.T) { testEpochFilter(t, KindNameInproc) }
func TestUDPEpochFilter(t *testing.T)    { testEpochFilter(t, KindNameUDP) }
func TestTCPEpochFilter(t *testing.T)    { testEpochFilter(t, KindNameTCP) }

func TestBroadcast(t *testing.T) {
	hosts := map[string]string{"h1": "a", "h2": "b", "h3": "c"}
	eps, err := NewLoopbackCluster(KindNameUDP, hosts)
	if err != nil {
		t.Fatal(err)
	}
	cols := make(map[string]*collector)
	for name, ep := range eps {
		col := &collector{}
		cols[name] = col
		if err := ep.Start(col.handle); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
	}
	if err := eps["a"].Broadcast(Message{Kind: KindCtrl, State: "hello"}); err != nil {
		t.Fatal(err)
	}
	cols["b"].wait(t, 1, 2*time.Second)
	cols["c"].wait(t, 1, 2*time.Second)
	if n := len(cols["a"].msgs); n != 0 {
		t.Fatalf("broadcast delivered to sender: %d", n)
	}
}

func TestTCPReconnect(t *testing.T) {
	eps, cols := testCluster(t, KindNameTCP)
	a := eps["alpha"].(*TCP)

	if err := a.SendHost("h2", Message{Kind: KindNote, State: "one"}); err != nil {
		t.Fatal(err)
	}
	cols["beta"].wait(t, 1, 2*time.Second)

	// Sever the cached connection behind the sender's back; the next send
	// must notice the dead stream and redial.
	a.mu.Lock()
	c := a.conns[a.topo.Peers["beta"]]
	a.mu.Unlock()
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	time.Sleep(10 * time.Millisecond)

	var err error
	for i := 0; i < 3; i++ { // a race may eat the first post-sever write
		if err = a.SendHost("h2", Message{Kind: KindNote, State: "two"}); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	got := cols["beta"].wait(t, 2, 2*time.Second)
	if got[len(got)-1].State != "two" {
		t.Fatalf("post-reconnect frame missing: %+v", got)
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{},
		{Local: "a", Peers: map[string]string{"b": ""}},
		{Local: "a", Peers: map[string]string{"a": ""}, Hosts: map[string]string{"h": "ghost"}},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("case %d: invalid topology accepted: %+v", i, topo)
		}
	}
	good := Topology{Local: "a", Peers: map[string]string{"a": "", "b": ""}, Hosts: map[string]string{"h": "b"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := NewLoopbackCluster("carrier-pigeon", clusterHosts); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range []string{"", "inproc", "udp", "tcp"} {
		if !ValidKind(k) {
			t.Fatalf("kind %q should be valid", k)
		}
	}
	if ValidKind("x") {
		t.Fatal("kind x should be invalid")
	}
	if _, err := New(KindNameInproc, clusterTopology("alpha", clusterHosts), nil); err == nil {
		t.Fatal("inproc endpoint without a network to join accepted")
	}
}

func ExampleTopology_Owner() {
	topo := Topology{
		Local: "alpha",
		Peers: map[string]string{"alpha": "127.0.0.1:7001", "beta": "127.0.0.1:7002"},
		Hosts: map[string]string{"h1": "alpha", "h2": "beta"},
	}
	fmt.Println(topo.Owner("h2"), topo.IsLocal("h1"), topo.IsLocal("h2"))
	// Output: beta true false
}
