package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/probe"
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

	res, err := coordinator.RunStudy(context.Background(), false)
	if err == nil {
		t.Fatalf("mismatched cluster ran: %+v", res)
	}
	for side, err := range map[string]error{"coordinator": err, "member": awaitServe(t, served)} {
		if err == nil || !strings.Contains(err.Error(), coordinator.fp) || !strings.Contains(err.Error(), member.fp) {
			t.Errorf("%s error does not name both fingerprints (%s, %s): %v", side, coordinator.fp, member.fp, err)
		}
	}
}

// TestClusterVersionMismatchFailsFast plays a peer of another protocol
// version against a current member, in both roles, and each role must
// fail within a fraction of clusterAckTimeout, naming the peer. "old" is
// a peer built before the protocol carried a version: its hello, in this
// layout, says version 0. "gob" is a version 2 peer, whose payloads are
// gob (built with the test-only gob reference): they do not decode at
// all, and must still be refused as another version, not dropped until
// the barrier times out.
func TestClusterVersionMismatchFailsFast(t *testing.T) {
	type peerBuild struct {
		want string // what both sides' errors say of the peer's version
		// frame is the peer's frame op from -> to carrying cm.
		frame func(from, to, op string, cm clusterMsg) transport.Message
	}
	this := fmt.Sprintf(", this endpoint version %d", protocolVersion)
	builds := map[string]peerBuild{
		"old": {"version 0" + this, func(from, to, op string, cm clusterMsg) transport.Message {
			cm.Version = 0
			return ctrlFrame(from, to, op, cm)
		}},
		"gob": {"version older than 3 (gob payloads)" + this, func(from, to, op string, cm clusterMsg) transport.Message {
			cm.Peer, cm.Version = from, 2
			body, err := transport.EncodePayload(cm)
			if err != nil {
				t.Error(err) // may run on the coordinator's goroutine
			}
			return transport.Message{Kind: transport.KindCtrl, From: from, To: to, State: op, Payload: body}
		}},
	}
	fast := func(t *testing.T, began time.Time) {
		if took := time.Since(began); took > clusterAckTimeout/4 {
			t.Errorf("refusal took %v, want well under clusterAckTimeout (%v)", took, clusterAckTimeout)
		}
	}
	for _, name := range []string{"old", "gob"} {
		build := builds[name]
		t.Run(name+" member", func(t *testing.T) {
			ta, tb := pairEndpoints(t)
			coordinator := pairMember(t, stepCampaign(t, 1, 1), ta)
			// The peer acknowledges every reset, as it always did.
			err := tb.Start(func(m transport.Message) {
				if m.State == opReset {
					cm, _ := decodeClusterMsg(m.Payload, nil)
					tb.SendPeer("a", build.frame("b", "a", opResetOK, clusterMsg{Index: cm.Index, Fingerprint: coordinator.fp}))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			began := time.Now()
			res, err := coordinator.RunStudy(context.Background(), false)
			if err == nil || !strings.Contains(err.Error(), "peer b speaks protocol "+build.want) {
				t.Fatalf("coordinator accepted the peer: %+v, %v", res, err)
			}
			fast(t, began)
		})

		t.Run(name+" coordinator", func(t *testing.T) {
			ta, tb := pairEndpoints(t)
			member := pairMember(t, stepCampaign(t, 1, 1), tb)
			acks := make(chan clusterMsg, 1)
			err := ta.Start(func(m transport.Message) {
				if cm, err := decodeClusterMsg(m.Payload, nil); err == nil && m.State == opResetOK {
					acks <- cm
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			began := time.Now()
			served := serve(member)
			ta.SendPeer("b", build.frame("a", "b", opReset, clusterMsg{Index: 0, Fingerprint: member.fp}))
			select {
			case ack := <-acks:
				if ack.Version != protocolVersion || ack.Fingerprint != member.fp {
					t.Fatalf("refusal does not say what the member runs: %+v", ack)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no answer to the peer's reset")
			}
			ta.SendPeer("b", build.frame("a", "b", opStop, clusterMsg{}))
			if err := awaitServe(t, served); err == nil || !strings.Contains(err.Error(), "peer a speaks protocol "+build.want) {
				t.Fatalf("member served the peer: %v", err)
			}
			fast(t, began)
		})
	}
}

// countStops wraps m's transport hook to count the stop frames that reach
// m, whether or not its Serve loop is still there to read them.
func countStops(m *Member) *atomic.Int32 {
	n := new(atomic.Int32)
	hook := m.hook
	m.rt.SetTransportHook(func(msg transport.Message) {
		if msg.Kind == transport.KindCtrl && msg.State == opStop {
			n.Add(1)
		}
		hook(msg)
	})
	return n
}

// TestStopAcknowledged counts stop frames, never wall time: a live member
// acknowledges the first stop, which cuts its re-sends short of the
// bound (five frames, one per retry tick; only a Serve loop stalled for
// the whole bound could reach it); an unanswered stop is re-sent up to the
// bound, and a quit coordinator still re-sends it.
func TestStopAcknowledged(t *testing.T) {
	const bound = int32(clusterStopTimeout / clusterRetry)

	t.Run("live members", func(t *testing.T) {
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
		coordinator := pairMember(t, c, eps["a"])
		stops := map[string]*atomic.Int32{}
		var served []<-chan error
		for _, peer := range []string{"b", "c"} {
			m := pairMember(t, c, eps[peer])
			stops[peer] = countStops(m)
			served = append(served, serve(m))
		}
		res, err := coordinator.RunStudy(context.Background(), false)
		if err != nil || len(res.Studies[0].Records) != 1 {
			t.Fatalf("RunStudy: %+v, %v", res, err)
		}
		for _, done := range served {
			if err := awaitServe(t, done); err != nil {
				t.Fatal(err)
			}
		}
		for peer, n := range stops {
			if got := n.Load(); got < 1 || got >= bound {
				t.Errorf("member %s got %d stop frames, want its ack to stop the re-sends (1 to %d)", peer, got, bound-1)
			}
		}
	})

	t.Run("member already quit", func(t *testing.T) {
		ta, tb := pairEndpoints(t)
		c := stepCampaign(t, 1, 1)
		coordinator := pairMember(t, c, ta)
		member := pairMember(t, c, tb)
		stops := countStops(member)
		done := serve(member)
		member.Quit()
		if err := awaitServe(t, done); err != nil {
			t.Fatal(err)
		}
		coordinator.stopCluster() // returns: a missing ack is not an error
		if got := stops.Load(); got < 1 || got > bound {
			t.Fatalf("an unanswered stop went out %d times, want 1 to %d", got, bound)
		}
	})

	t.Run("coordinator quit", func(t *testing.T) {
		ta, tb := pairEndpoints(t)
		coordinator := pairMember(t, stepCampaign(t, 1, 1), ta)
		var stops atomic.Int32 // a peer that counts stops and never answers
		err := tb.Start(func(msg transport.Message) {
			if msg.Kind == transport.KindCtrl && msg.State == opStop {
				stops.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		coordinator.Quit()
		coordinator.stopCluster()
		if got := stops.Load(); got < 2 || got > bound {
			t.Fatalf("a quit coordinator sent stop %d times, want it re-broadcast (2 to %d)", got, bound)
		}
	})
}

// TestLostStartResent drops the member's first start frame. The
// coordinator's own node on h1 cannot exit until the member's node on h2
// has started (or it is killed at seal), so the experiment completes only
// if start is re-sent while the coordinator's own nodes still run — a
// start recovered only after its own Wait timed out leaves the record
// incomplete.
func TestLostStartResent(t *testing.T) {
	ta, tb := pairEndpoints(t)
	c := stepCampaign(t, 1, 1)
	c.Studies[0].Timeout = 2 * time.Second
	memberStarted := make(chan struct{})
	var startOnce sync.Once
	c.Studies[0].NewApp = func(p Point, nick string) (core.App, error) {
		switch nick {
		case "alpha":
			return probe.NewInstrumented(func(h *core.Handle) {
				h.NotifyEvent("S1")
				select {
				case <-memberStarted:
				case <-h.Done():
					return
				}
				h.NotifyEvent("GO")
				h.NotifyEvent("GO2")
			}).On("alphafault", probe.NoteFault()), nil
		case "beta":
			return probe.NewInstrumented(func(h *core.Handle) {
				startOnce.Do(func() { close(memberStarted) })
				h.NotifyEvent("S1")
				h.NotifyEvent("GO")
				h.NotifyEvent("GO2")
			}).On("betafault", probe.NoteFault()), nil
		}
		return stepApp(p, nick)
	}

	coordinator := pairMember(t, c, ta)
	member := pairMember(t, c, tb)
	var starts atomic.Int32
	hook := member.hook
	member.rt.SetTransportHook(func(msg transport.Message) {
		if msg.Kind == transport.KindCtrl && msg.State == opStart && starts.Add(1) == 1 {
			return // the first start is lost
		}
		hook(msg)
	})
	served := serve(member)
	res, err := coordinator.RunStudy(context.Background(), false)
	if err != nil || len(res.Studies[0].Records) != 1 {
		t.Fatalf("RunStudy: %+v, %v", res, err)
	}
	if err := awaitServe(t, served); err != nil {
		t.Fatal(err)
	}
	if got := starts.Load(); got < 2 {
		t.Fatalf("the member saw %d start frames, want the lost one re-sent", got)
	}
	if rec := res.Studies[0].Records[0]; !rec.Completed {
		t.Fatalf("experiment incomplete: the member started only after the coordinator's own nodes gave up: %+v", rec)
	}
}

// TestClusterWaitsOnRuntimeClock: the protocol's waits block on the
// runtime's clock, so under virtual time a reset barrier no peer answers
// times out after clusterAckTimeout of simulated time and next to no wall
// time. A wait that read the wall clock would take the whole bound.
func TestClusterWaitsOnRuntimeClock(t *testing.T) {
	ta, _ := pairEndpoints(t) // peer b is never served
	c := stepCampaign(t, 1, 1)
	v := clock.NewVirtual()
	c.Runtime.Clock = v
	coordinator := pairMember(t, c, ta)

	wall := time.Now()
	v.Drive()
	begin := v.Now()
	err := coordinator.barrier(coordinator.hello(0))
	simulated := v.Since(begin)
	v.Release()
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("barrier against a silent peer: %v, want a time-out", err)
	}
	if simulated < clusterAckTimeout {
		t.Errorf("barrier gave up after %v of simulated time, want at least %v", simulated, clusterAckTimeout)
	}
	if took := time.Since(wall); took >= 2*time.Second {
		t.Errorf("barrier took %v of wall time: a wait escaped the runtime's clock", took)
	}
}

// TestDoneWaitBoundedFromStart pins where the done wait ends: the study
// timeout plus clusterAckTimeout after the start, not clusterAckTimeout
// after the coordinator's own nodes finish. A scripted member whose nodes
// outlast the coordinator's reports done 100 ms before that bound, on the
// coordinator's virtual clock, and the experiment must count as completed.
func TestDoneWaitBoundedFromStart(t *testing.T) {
	ta, tb := pairEndpoints(t)
	c := stepCampaign(t, 1, 1)
	v := clock.NewVirtual()
	c.Runtime.Clock = v
	coordinator := pairMember(t, c, ta)
	reply := func(op string, cm clusterMsg) {
		if err := tb.SendPeer("a", ctrlFrame("b", "a", op, cm)); err != nil {
			t.Error(err)
		}
	}
	var doneOnce sync.Once
	err := tb.Start(func(msg transport.Message) {
		cm, err := decodeClusterMsg(msg.Payload, nil)
		if err != nil {
			return
		}
		switch msg.State {
		case opStart:
			reply(opStartOK, clusterMsg{Index: cm.Index})
			doneOnce.Do(func() {
				v.AfterFunc(c.Studies[0].Timeout+clusterAckTimeout-100*time.Millisecond, func() {
					reply(opDone, clusterMsg{Index: cm.Index, Completed: true})
				})
			})
		case opSeal:
			reply(opResult, clusterMsg{Index: cm.Index})
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	v.Drive()
	run, err := coordinator.execute(0)
	v.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !run.completed {
		t.Fatal("a done reported inside the study timeout plus clusterAckTimeout was discarded")
	}
}
