package campaign

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestLentPayloadNeverKept: a member borrows an inbound frame's payload
// only until its hook returns (transport.Handler). A scripted peer sends
// the coordinator control frames, a sync pong and a sync ping over the
// inproc wire, which hands the sender's buffer itself to the runtime's
// handler and so to the hook, and scribbles the buffer as soon as each
// send returns. What the hook queued must still read as sent when gather
// and collectPongs take it, and the ping must be answered with its own
// sequence number. Run under -race in CI.
//
// Mutation-checked: a hook that queues the raw payload and leaves its
// decoding to the protocol loops fails.
func TestLentPayloadNeverKept(t *testing.T) {
	a, b := pairEndpoints(t)
	coordinator := pairMember(t, stepCampaign(t, 1, 1), a)
	var (
		mu    sync.Mutex
		pongs []syncWire
	)
	err := b.Start(func(m transport.Message) {
		if m.Kind != transport.KindSyncPong {
			return
		}
		w, err := decodeSyncWire(m.Payload)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		pongs = append(pongs, w)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	lend := func(m transport.Message, payload []byte) {
		buf = append(buf[:0], payload...)
		m.Payload = buf
		if err := b.SendPeer("a", m); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
	}

	outcomes := map[string]string{"beta": "exited", "gamma": "crashed"}
	sent := []clusterMsg{
		{Index: 4, Peer: "b", Doc: "the first half of a document, ", More: true, Outcomes: outcomes, Seq: 0, Total: 3},
		{Index: 4, Peer: "b", Doc: "and its second half", Outcomes: outcomes, Seq: 1, Total: 3},
		{Index: 4, Peer: "b", Doc: "another document", Outcomes: outcomes, Dropped: []string{"delta"}, Seq: 2, Total: 3},
	}
	for _, f := range sent {
		lend(transport.Message{Kind: transport.KindCtrl, From: "b", To: "a", State: opResult}, f.appendWire(nil))
	}
	sets, err := coordinator.gather("", clusterMsg{Index: 4}, opResult, time.Second, true)
	if err != nil {
		t.Fatalf("gathering the lent result frames: %v", err)
	}
	if !reflect.DeepEqual(sets[0], sent) {
		t.Fatalf("the gathered result frames read\n%+v\nwant them as sent\n%+v", sets[0], sent)
	}

	pong := syncWire{Seq: 7, RemoteRecv: 11, RemoteSend: 12, ProcRecv: 13, ProcSend: 14}
	lend(transport.Message{Kind: transport.KindSyncPong, From: "b", To: "a", ToHost: "h2"}, pong.appendTo(nil))
	round := []syncPing{{host: "h2", peer: "b", seq: 7}}
	coordinator.collectPongs(round, coordinator.rt.HostClock("h1"), nil)
	if !round[0].ok || round[0].pong != pong {
		t.Fatalf("the collected pong reads %+v (paired %v), want %+v as sent", round[0].pong, round[0].ok, pong)
	}

	lend(transport.Message{Kind: transport.KindSyncPing, From: "b", To: "a", ToHost: "h1"}, syncWire{Seq: 9}.appendTo(nil))
	mu.Lock()
	defer mu.Unlock()
	if len(pongs) != 1 || pongs[0].Seq != 9 {
		t.Fatalf("the lent ping was answered with %+v, want one pong of Seq 9", pongs)
	}
}
