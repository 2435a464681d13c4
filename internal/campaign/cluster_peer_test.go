package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// pairEndpoints is a two-endpoint inproc cluster over stepCampaign's
// hosts: peer "a" owns the reference host h1 (so it coordinates), peer
// "b" the other two.
func pairEndpoints(t testing.TB) (a, b transport.Transport) {
	t.Helper()
	eps, err := transport.NewLoopbackCluster(transport.KindNameInproc, map[string]string{"h1": "a", "h2": "b", "h3": "b"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eps["a"].Close(); eps["b"].Close() })
	return eps["a"], eps["b"]
}

func pairMember(t testing.TB, c *Campaign, tr transport.Transport) *Member {
	t.Helper()
	m, err := NewMember(c, c.Studies[0], tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// serve runs the member's Serve loop and returns the channel its result
// arrives on.
func serve(m *Member) <-chan error {
	done := make(chan error, 1)
	go func() { done <- m.Serve(context.Background()) }()
	return done
}

func awaitServe(t testing.TB, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the coordinator stopped the cluster")
		return nil
	}
}

// TestClusterFingerprintMismatchFailsFast: two members started from
// different study descriptions must refuse each other at the first reset
// barrier, each naming both fingerprints — not run an experiment one of
// them would fill with frames of another study.
func TestClusterFingerprintMismatchFailsFast(t *testing.T) {
	ta, tb := pairEndpoints(t)
	coordinator := pairMember(t, stepCampaign(t, 1, 1), ta)
	member := pairMember(t, stepCampaign(t, 2, 1), tb) // another experiment count: another study
	if coordinator.fp == member.fp {
		t.Fatal("test premise: the two studies share a fingerprint")
	}
	served := serve(member)

	sr, err := coordinator.RunStudy(context.Background(), false)
	if err == nil {
		t.Fatalf("mismatched cluster ran: %+v", sr)
	}
	for side, err := range map[string]error{"coordinator": err, "member": awaitServe(t, served)} {
		if err == nil || !strings.Contains(err.Error(), coordinator.fp) || !strings.Contains(err.Error(), member.fp) {
			t.Errorf("%s error does not name both fingerprints (%s, %s): %v", side, coordinator.fp, member.fp, err)
		}
	}
}

// TestClusterVersionMismatchFailsFast plays a peer built before the
// protocol carried a version — its frames decode as version 0 — against a
// current member, in both roles.
func TestClusterVersionMismatchFailsFast(t *testing.T) {
	old := func(op string, to string, cm clusterMsg) transport.Message {
		cm.Version = 0
		body, err := transport.EncodePayload(cm)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Kind: transport.KindCtrl, To: to, State: op, Payload: body}
	}
	want := fmt.Sprintf("version 0, this endpoint version %d", protocolVersion)

	t.Run("old member", func(t *testing.T) {
		ta, tb := pairEndpoints(t)
		coordinator := pairMember(t, stepCampaign(t, 1, 1), ta)
		// The old member acknowledges every reset, as it always did.
		err := tb.Start(func(m transport.Message) {
			if cm, err := transport.DecodePayload[clusterMsg](m.Payload); err == nil && m.State == opReset {
				tb.SendPeer("a", old(opResetOK, "a", clusterMsg{Index: cm.Index, Peer: "b", Fingerprint: cm.Fingerprint}))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := coordinator.RunStudy(context.Background(), false)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("coordinator accepted an old member: %+v, %v", sr, err)
		}
	})

	t.Run("old coordinator", func(t *testing.T) {
		ta, tb := pairEndpoints(t)
		member := pairMember(t, stepCampaign(t, 1, 1), tb)
		acks := make(chan clusterMsg, 1)
		err := ta.Start(func(m transport.Message) {
			if cm, err := transport.DecodePayload[clusterMsg](m.Payload); err == nil && m.State == opResetOK {
				acks <- cm
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		served := serve(member)
		ta.SendPeer("b", old(opReset, "b", clusterMsg{Index: 0, Peer: "a", Fingerprint: member.fp}))
		select {
		case ack := <-acks:
			if ack.Version != protocolVersion || ack.Fingerprint != member.fp {
				t.Fatalf("refusal does not say what the member runs: %+v", ack)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no answer to the old coordinator's reset")
		}
		ta.SendPeer("b", old(opStop, "b", clusterMsg{Peer: "a"}))
		if err := awaitServe(t, served); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("member served an old coordinator: %v", err)
		}
	})
}

// payloadRoundTrip is the property FuzzDecodePayload checks for one
// payload type: the decoder never panics, and what it accepts survives
// encode∘decode (compared printed, which is NaN- and map-order-proof).
func payloadRoundTrip[T any](t *testing.T, b []byte) {
	v, err := transport.DecodePayload[T](b)
	if err != nil {
		return
	}
	again, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatalf("%T decoded but does not re-encode: %v", v, err)
	}
	back, err := transport.DecodePayload[T](again)
	if err != nil || fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", v) {
		t.Fatalf("round trip: %+v -> %+v (%v)", v, back, err)
	}
}

// FuzzDecodePayload fuzzes the one gob decoder as the cluster protocol
// instantiates it — control messages and clock-sync stamps — seeded with
// one real frame body per kind and op of a matching two-endpoint run
// (which must itself succeed: peers that agree pass the reset barrier).
func FuzzDecodePayload(f *testing.F) {
	ta, tb := pairEndpoints(f)
	coordinator := pairMember(f, stepCampaign(f, 2, 1), ta)
	member := pairMember(f, stepCampaign(f, 2, 1), tb)
	var mu sync.Mutex
	seen := map[string][]byte{} // first body of each frame kind and op
	for _, m := range []*Member{coordinator, member} {
		hook := m.hook
		m.rt.SetTransportHook(func(msg transport.Message) {
			mu.Lock()
			if key := transport.KindName(msg.Kind) + " " + msg.State; seen[key] == nil {
				seen[key] = msg.Payload
			}
			mu.Unlock()
			hook(msg)
		})
	}
	served := serve(member)
	sr, err := coordinator.RunStudy(context.Background(), false)
	if err != nil || len(sr.Records) != 2 || !sr.Records[1].Accepted {
		f.Fatalf("matching cluster: %+v, %v", sr, err)
	}
	if err := awaitServe(f, served); err != nil {
		f.Fatal(err)
	}
	for _, key := range []string{"syncping ", "syncpong ", "ctrl " + opReset, "ctrl " + opResetOK, "ctrl " + opDone, "ctrl " + opResult} {
		if seen[key] == nil {
			f.Fatalf("the run sent no %q frame (have %v)", key, sortedKeys(seen))
		}
	}
	for _, b := range seen {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payloadRoundTrip[clusterMsg](t, b)
		payloadRoundTrip[syncWire](t, b)
	})
}
