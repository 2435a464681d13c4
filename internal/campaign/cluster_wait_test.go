package campaign

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// gatherDocs returns each set's documents, indexed like the sets.
func gatherDocs(sets [][]clusterMsg) [][]string {
	out := make([][]string, len(sets))
	for i, set := range sets {
		for _, f := range set {
			out[i] = append(out[i], f.Doc)
		}
	}
	return out
}

// TestGatherFrameSets queues answer frames in the coordinator's inbox and
// gathers them: frames out of Seq order, a repeated Seq (the later frame
// replaces the earlier), a frame of another experiment, a frame from a peer
// that is not one, and another op's frame. While a peer still owes frames
// its Total promises, gather times out naming what each peer sent; once
// the set is whole, it returns the sets indexed like the peers, each in Seq
// order, and nothing of the earlier gather is left in the reused arrays.
func TestGatherFrameSets(t *testing.T) {
	eps, err := transport.NewLoopbackCluster(transport.KindNameInproc, map[string]string{"h1": "a", "h2": "b", "h3": "c"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	coordinator := pairMember(t, stepCampaign(t, 1, 1), eps["a"])
	answer := func(from, op string, index, seq, total int, doc string) {
		coordinator.hook(ctrlFrame(from, "a", op, clusterMsg{Index: index, Seq: seq, Total: total, Doc: doc}))
	}
	answers := func() {
		answer("c", opResult, 5, 0, 2, "c0")
		answer("b", opResult, 5, 1, 2, "b1 replaced")
		answer("b", opResult, 5, 0, 2, "b0")
		answer("b", opResult, 4, 0, 2, "stale") // another experiment's
		answer("z", opResult, 5, 0, 1, "z0")    // not a peer
		answer("b", opResult, 5, 1, 2, "b1")
		answer("c", opStartOK, 5, 1, 2, "startok") // another op
	}

	answers() // c still owes Seq 1
	_, err = coordinator.gather("", clusterMsg{Index: 5}, opResult, 50*time.Millisecond, true)
	if want := "timed out awaiting result (frames so far: b 2, c 1)"; err == nil || err.Error() != want {
		t.Fatalf("gather with c's set short: %v, want %q", err, want)
	}

	answers()
	answer("c", opResult, 5, 1, 2, "c1")
	sets, err := coordinator.gather("", clusterMsg{Index: 5}, opResult, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	got := gatherDocs(sets)
	want := [][]string{{"b0", "b1"}, {"c0", "c1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gathered %q, want %q (indexed like peers %q)", got, want, coordinator.peers)
	}
	for i, set := range sets {
		if !complete(set) {
			t.Errorf("peer %s: returned set %+v is not complete", coordinator.peers[i], set)
		}
		if complete(set[:1]) {
			t.Errorf("peer %s: 1 frame of a set of %d reads complete", coordinator.peers[i], set[0].Total)
		}
	}
	if complete(nil) {
		t.Error("an empty set reads complete")
	}
}

// TestMemberSendAllocs: a warm member encodes its control frames, sync
// pings and sync pongs into the buffer it owns, and the receiving read
// loop lends each payload out of its own, so over UDP neither a control
// frame nor a sync round trip allocates. While every received payload was
// copied they cost 1 and 2, and while every payload was also encoded in a
// fresh slice, 2 and 4. Run under -race in CI.
func TestMemberSendAllocs(t *testing.T) {
	eps, err := transport.NewLoopbackCluster(transport.KindNameUDP, map[string]string{"h1": "a", "h2": "b", "h3": "b"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eps["a"].Close(); eps["b"].Close() })
	c := stepCampaign(t, 1, 1)
	coordinator, member := pairMember(t, c, eps["a"]), pairMember(t, c, eps["b"])
	got := make(chan transport.Message, 1)
	member.rt.SetTransportHook(func(msg transport.Message) {
		if msg.Kind == transport.KindCtrl {
			got <- msg
			return
		}
		member.hook(msg) // answers the ping
	})
	coordinator.rt.SetTransportHook(func(msg transport.Message) { got <- msg })
	timeout := time.NewTimer(time.Hour) // reset per frame: time.After would allocate
	defer timeout.Stop()
	await := func(kind byte) {
		timeout.Reset(2 * time.Second)
		select {
		case msg := <-got:
			if msg.Kind != kind {
				t.Fatalf("got a %s frame, want %s", transport.KindName(msg.Kind), transport.KindName(kind))
			}
		case <-timeout.C:
			t.Fatalf("%s frame lost on loopback", transport.KindName(kind))
		}
	}
	for _, c := range []struct {
		name string
		run  func()
		want float64
	}{
		{"control frame", func() {
			coordinator.sendCtrl("b", opStartOK, clusterMsg{Index: 3})
			await(transport.KindCtrl)
		}, 0},
		{"sync ping and pong", func() {
			ping := transport.Message{Kind: transport.KindSyncPing, From: "a", ToHost: "h2"}
			if err := coordinator.sendSync("b", ping, syncWire{Seq: 9}); err != nil {
				t.Fatal(err)
			}
			await(transport.KindSyncPong)
		}, 0},
	} {
		allocs := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %.1f allocations (budget %.0f)", c.name, allocs, c.want)
		if allocs > c.want {
			t.Errorf("a warm %s over UDP allocates %.1f objects, want %.0f", c.name, allocs, c.want)
		}
	}
}
