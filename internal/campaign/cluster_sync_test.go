package campaign

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clocksync"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// scriptedPong is one pong frame a script sends: the remote host it
// answers for (ToHost) and its body.
type scriptedPong struct {
	host string
	w    syncWire
}

// pongScript says what a remote host answers to its sync ping of one
// round (numbered from 0 per host), given the sequence number of every
// ping that host has received so far: the pongs to send now.
type pongScript func(host string, round int, seqs []int) []scriptedPong

// answer is host's genuine pong to seq. Both remote stamps carry seq
// itself, so a stamp pair names the round it was paired from.
func answer(host string, seq int) scriptedPong {
	return scriptedPong{host, syncWire{Seq: seq, RemoteRecv: int64(seq), RemoteSend: int64(seq)}}
}

// scriptedSync builds a coordinator whose two remote hosts are answered
// by script instead of by members: peer a owns the reference host h1, raw
// endpoints b and c own h2 and h3. The inproc wire delivers on the
// sender's goroutine, so every pong a script sends for round r is in the
// coordinator's inbox before its round-r collection starts. It returns the
// coordinator and every ping's sequence number by host.
func scriptedSync(t *testing.T, script pongScript) (*Member, map[string][]int) {
	t.Helper()
	eps, err := transport.NewLoopbackCluster(transport.KindNameInproc, map[string]string{"h1": "a", "h2": "b", "h3": "c"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	c := stepCampaign(t, 1, 1)
	c.Sync = SyncConfig{Messages: 4, Spacing: 20 * time.Microsecond}
	coordinator := pairMember(t, c, eps["a"])
	var mu sync.Mutex
	seqs := map[string][]int{}
	for _, peer := range []string{"b", "c"} {
		ep := eps[peer]
		err := ep.Start(func(msg transport.Message) {
			if msg.Kind != transport.KindSyncPing {
				return
			}
			ping, err := decodeSyncWire(msg.Payload)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seqs[msg.ToHost] = append(seqs[msg.ToHost], ping.Seq)
			seen := append([]int(nil), seqs[msg.ToHost]...)
			mu.Unlock()
			for _, p := range script(msg.ToHost, len(seen)-1, seen) {
				if err := ep.SendPeer("a", transport.Message{Kind: transport.KindSyncPong, To: "a", ToHost: p.host, Payload: p.w.encode()}); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return coordinator, seqs
}

// pairedSeqs reads back, per remote host, the sequence number each of its
// stamp pairs was paired from, checking that every pair is ref->host then
// host->ref with a reference receive stamp no earlier than its send stamp.
func pairedSeqs(t *testing.T, msgs []clocksync.StampedMessage, ref string) map[string][]int {
	t.Helper()
	if len(msgs)%2 != 0 {
		t.Fatalf("%d stamps: not whole pairs", len(msgs))
	}
	out := map[string][]int{}
	for k := 0; k < len(msgs); k += 2 {
		out1, back := msgs[k], msgs[k+1]
		host := out1.RecvHost
		if out1.SendHost != ref || back.SendHost != host || back.RecvHost != ref {
			t.Fatalf("stamps %d, %d are not one round trip to one host: %+v %+v", k, k+1, out1, back)
		}
		if out1.RecvTime != back.SendTime {
			t.Fatalf("host %s: the pair's remote stamps come from two pongs (%d, %d)", host, out1.RecvTime, back.SendTime)
		}
		if back.RecvTime < out1.SendTime {
			t.Fatalf("host %s seq %d: reference receive %d before reference send %d", host, out1.RecvTime, back.RecvTime, out1.SendTime)
		}
		out[host] = append(out[host], int(out1.RecvTime))
	}
	return out
}

// TestSyncRoundCollector drives one sync mini-phase against two scripted
// remote hosts: pongs out of host order, a duplicate, a stale pong from an
// earlier round, a lost round and its late straggler. Each host must get
// exactly its surviving rounds, each stamp pair from its own round's
// pong, and a host left with too few rounds fails the phase with the
// error the sequential exchange gave.
func TestSyncRoundCollector(t *testing.T) {
	t.Run("surviving rounds", func(t *testing.T) {
		var held []scriptedPong // h2's round-0 pong, sent after h3's
		coordinator, seqs := scriptedSync(t, func(host string, round int, seen []int) []scriptedPong {
			seq := seen[round]
			switch {
			case host == "h2" && round == 0:
				held = append(held, answer(host, seq))
				return nil
			case host == "h3" && round == 0:
				return append([]scriptedPong{answer(host, seq)}, held...)
			case host == "h2" && round == 1:
				dup := answer(host, seq)
				dup.w.RemoteRecv, dup.w.RemoteSend = -1, -1 // a pairing of the duplicate shows
				return []scriptedPong{answer(host, seq), dup}
			case host == "h3" && round == 1:
				return []scriptedPong{answer(host, seen[0]), answer(host, seq)} // round 0's pong again first
			case host == "h3" && round == 2:
				return nil // lost
			case host == "h3" && round == 3:
				return []scriptedPong{answer(host, seen[2]), answer(host, seq)} // the lost round's pong, late
			}
			return []scriptedPong{answer(host, seq)}
		})
		msgs, err := coordinator.sync(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := pairedSeqs(t, msgs, coordinator.ref)
		want := map[string][]int{
			"h2": seqs["h2"],
			"h3": {seqs["h3"][0], seqs["h3"][1], seqs["h3"][3]},
		}
		for _, host := range []string{"h2", "h3"} {
			if len(seqs[host]) != 4 {
				t.Fatalf("host %s got %d pings, want 4", host, len(seqs[host]))
			}
			if !slices.Equal(got[host], want[host]) {
				t.Errorf("host %s paired seqs %v, want %v (pinged %v)", host, got[host], want[host], seqs[host])
			}
		}
		// One sequence number per ping, increasing in send order: round r
		// pings h2, then h3, then round r+1 begins.
		for r := 0; r < 4; r++ {
			if seqs["h2"][r] >= seqs["h3"][r] || (r < 3 && seqs["h3"][r] >= seqs["h2"][r+1]) {
				t.Fatalf("ping seqs not increasing in send order: h2 %v, h3 %v", seqs["h2"], seqs["h3"])
			}
		}
	})

	t.Run("too few rounds", func(t *testing.T) {
		coordinator, _ := scriptedSync(t, func(host string, round int, seen []int) []scriptedPong {
			if host == "h3" && (round == 1 || round == 2) {
				return nil
			}
			return []scriptedPong{answer(host, seen[round])}
		})
		dst := []clocksync.StampedMessage{{SendHost: "x", RecvHost: "y", SendTime: vclock.Ticks(1)}}
		msgs, err := coordinator.sync(dst)
		want := `campaign: sync with host "h3": only 2 of 4 round trips survived`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("sync error %v, want %q", err, want)
		}
		if len(msgs) != 1 || msgs[0] != dst[0] {
			t.Fatalf("a failed phase returned %v, not dst as given", msgs)
		}
	})
}
