package core

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestLentPayloadNeverKept: the runtime borrows an inbound frame's payload
// only until handleTransportMessage returns, as every transport.Handler
// does. Each frame is handed over in one buffer, which is scribbled as
// soon as the call returns, and what was delivered (application messages,
// a note), applied (chaos operations) or handed to the hook (control
// frames and sync pongs, which the hook copies) must read as sent. Run
// under -race in CI.
//
// Mutation-checked: a runtime that decodes an application payload on the
// delivering goroutine instead of before it returns fails.
func TestLentPayloadNeverKept(t *testing.T) {
	p := newEndpointPair(t)
	var buf []byte
	lend := func(m transport.Message, payload []byte) {
		buf = append(buf[:0], payload...)
		m.Payload = buf
		p.b.handleTransportMessage(m)
		for i := range buf {
			buf[i] = 0xff
		}
	}

	votes := []voteMsg{{Round: 1, Value: 7}, {Round: 2, Value: -1}, {Round: 3, Value: 1 << 40}}
	for _, v := range votes {
		lend(transport.Message{Kind: transport.KindApp, From: "a", FromHost: "h1", To: "b", ToHost: "h2"}, appFrame(t, &p.a.apps, v))
	}
	for i, want := range votes {
		got, ok := p.hb.WaitMessage(2 * time.Second)
		if !ok || got.From != "a" || got.Payload != want {
			t.Fatalf("application message %d arrived as %+v (%v), want %+v from a", i, got, ok, want)
		}
	}

	for _, op := range []chaosOp{
		{Op: "partition", A: "h1", B: "h2"},
		{Op: "filter", A: "h1", B: "h2", ID: "lent", FilterKind: "drop", P: 0.5},
	} {
		body, err := transport.EncodePayload(op)
		if err != nil {
			t.Fatal(err)
		}
		lend(transport.Message{Kind: transport.KindChaos, From: "A"}, body)
	}
	p.b.netem.mu.Lock()
	split := p.b.netem.partitions[hostPair("h1", "h2")]
	p.b.netem.mu.Unlock()
	if !split {
		t.Fatal("the lent partition was not applied")
	}
	if err := p.b.applyChaosOp(chaosOp{Op: "unfilter", A: "h1", B: "h2", ID: "lent"}); err != nil {
		t.Fatalf("the lent filter was not installed as sent: %v", err)
	}

	lend(transport.Message{Kind: transport.KindNote, From: "a", To: "b", State: "UP"}, nil)
	for deadline := time.Now().Add(2 * time.Second); viewOf(p.b.Node("b"), "a") != "UP"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the remote note did not reach b's view: a reads %q", viewOf(p.b.Node("b"), "a"))
		}
	}

	var hooked []string
	p.b.SetTransportHook(func(m transport.Message) { hooked = append(hooked, transport.KindName(m.Kind)+" "+string(m.Payload)) })
	lend(transport.Message{Kind: transport.KindCtrl, From: "A", State: "reset"}, []byte("control"))
	lend(transport.Message{Kind: transport.KindSyncPong, From: "A", ToHost: "h2"}, []byte("pong"))
	if want := []string{transport.KindName(transport.KindCtrl) + " control", transport.KindName(transport.KindSyncPong) + " pong"}; len(hooked) != 2 || hooked[0] != want[0] || hooked[1] != want[1] {
		t.Fatalf("the hook was handed %q, want %q", hooked, want)
	}
	if p.logB.has("did not decode") || p.logB.has("undecodable") {
		t.Fatalf("a lent payload failed to decode: %q", p.logB.lines)
	}
}

// TestRemoteNoteAllocatesNothing is TestRoutedNoteAllocatesNothing's twin
// for a note from a peer endpoint: once warm, handleTransportMessage
// schedules it in a spent delivery as a task of the runtime's clock, and
// allocates nothing.
func TestRemoteNoteAllocatesNothing(t *testing.T) {
	v, rt, _ := ringPair(t)
	states := [...]string{"P", "Q"}
	i := 0
	note := func() {
		i++
		rt.handleTransportMessage(transport.Message{Kind: transport.KindNote, From: "s", To: "far", State: states[i%2]})
		v.Sleep(time.Microsecond)
	}
	note()
	if got := testing.AllocsPerRun(1000, note); got != 0 {
		t.Fatalf("a remote note allocates %v objects once warm, want 0", got)
	}
	if got := viewOf(rt.Node("far"), "s"); got != states[i%2] {
		t.Fatalf("the receiver sees s in %q, want the last state sent, %q", got, states[i%2])
	}
}
