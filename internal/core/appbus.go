package core

import (
	"fmt"
	"time"
)

// AppMessage is an application-level message between nodes. The system
// under study needs its own communication channel — Loki's notification
// LAN is deliberately separate (§2.4 notes the runtime "can use a LAN
// separate from the one used by the system") — so the reproduction provides
// this bus in place of the application's own sockets.
type AppMessage struct {
	From    string
	Payload interface{}
}

const inboxCapacity = 256

// Send delivers a payload to another node's application inbox. It reports
// false when the destination is not a live node or its inbox is full —
// datagram semantics: the distributed system under study must tolerate
// loss, that is the point of injecting faults into it.
//
// The message first crosses the interposition layer (netem.go): a
// partition or an installed link filter may silently drop, delay,
// duplicate, or corrupt it. In-flight losses still report true — like a
// lost datagram, the sender cannot tell. This bus has no latency model of
// its own, so duplicate copies arrive together.
func (h *Handle) Send(to string, payload interface{}) bool {
	h.node.touch()
	rt := h.node.rt
	target := rt.Node(to)
	if target == nil {
		// Not live here — but possibly live in another process. The
		// message is shaped by the LOCAL interposition layer before it
		// reaches the socket (the send-side fault hook), then framed and
		// shipped; replicated chaos ops keep peer endpoints' shaping
		// state converged. True is returned like any datagram send: the
		// sender cannot observe a remote drop.
		if toHost, remote := rt.remoteHostFor(to); remote {
			h.sendRemote(to, toHost, payload)
			return true
		}
		return false
	}
	fate, blocked := rt.shapeAppMessage(h.node.Host(), target.Host(), payload)
	if blocked || fate.Drop {
		return true // lost in flight; datagram senders are not told
	}
	if fate.Payload != nil {
		payload = fate.Payload
	}
	m := AppMessage{From: h.Nickname(), Payload: payload}
	if fate.Delay > 0 {
		// Experiment-scoped: the epoch check and the delivery are atomic
		// with respect to the next reset, which recycles target's inbox.
		copies := fate.Copies
		rt.ExpAfterFunc(fate.Delay.Duration(), func() {
			for c := 0; c <= copies; c++ {
				target.handle.deliver(m, "")
			}
		})
		return true
	}
	ok := target.handle.deliver(m, h.Nickname())
	for c := 0; c < fate.Copies; c++ {
		target.handle.deliver(m, "")
	}
	return ok
}

// sendRemote ships one shaped application message toward the endpoint
// owning toHost. In-flight fates (drop, delay, duplicates, corruption)
// are resolved here, on the sender's side of the wire, so socket and
// in-memory links obey one filter semantics.
func (h *Handle) sendRemote(to, toHost string, payload interface{}) {
	rt := h.node.rt
	fromHost := h.node.Host()
	fate, blocked := rt.shapeAppMessage(fromHost, toHost, payload)
	if blocked || fate.Drop {
		return // lost in flight
	}
	if fate.Payload != nil {
		payload = fate.Payload
	}
	nick, copies := h.Nickname(), fate.Copies
	if fate.Delay > 0 {
		// The closure is made only here: the undelayed send allocates none.
		delayed := payload
		rt.ExpAfterFunc(fate.Delay.Duration(), func() {
			rt.sendRemoteApp(nick, fromHost, to, toHost, delayed, copies)
		})
		return
	}
	rt.sendRemoteApp(nick, fromHost, to, toHost, payload, copies)
}

// deliver places a message in the handle's inbox, non-blocking, and wakes
// any goroutine blocked in WaitMessage/Sleep on the node. from, when
// non-empty, names the sender for the inbox-full diagnostic.
func (h *Handle) deliver(m AppMessage, from string) bool {
	select {
	case h.inboxChan() <- m:
		h.node.wakeWaiters()
		return true
	default:
		if from != "" {
			h.node.rt.cfg.Logf("core: app inbox of %s full; dropping message from %s", h.Nickname(), from)
		}
		return false
	}
}

// Broadcast sends a payload to every other live node — including nodes
// placed on hosts owned by other endpoints, which may or may not be live
// there — returning how many accepted it. Without remote endpoints (the
// single-process default) this is the original cheap loop: broadcasts
// are on the apps' heartbeat paths and must not pay clustered-mode
// bookkeeping, nor a fresh list of the live nodes (the registration's
// scratch holds it).
func (h *Handle) Broadcast(payload interface{}) int {
	reg := h.node.reg
	var live []string
	scratch := reg.broadcasting.CompareAndSwap(false, true)
	if scratch {
		live = reg.live[:0]
	}
	live = h.node.rt.appendLiveNodes(live)
	n := h.broadcast(live, payload)
	if scratch {
		reg.live = live
		reg.broadcasting.Store(false)
	}
	return n
}

// broadcast is Broadcast over the sorted live nicknames.
func (h *Handle) broadcast(live []string, payload interface{}) int {
	n := 0
	remote := h.node.rt.remoteNicknames() // nil without a multi-endpoint transport
	if len(remote) == 0 {
		for _, nick := range live {
			if nick == h.Nickname() {
				continue
			}
			if h.Send(nick, payload) {
				n++
			}
		}
		return n
	}
	sent := map[string]bool{h.Nickname(): true}
	for _, nick := range live {
		if sent[nick] {
			continue
		}
		sent[nick] = true
		if h.Send(nick, payload) {
			n++
		}
	}
	for _, nick := range remote {
		if sent[nick] {
			continue
		}
		sent[nick] = true
		if h.Send(nick, payload) {
			n++
		}
	}
	return n
}

// Inbox returns the node's application message channel. Messages sent to a
// crashed node stay undelivered; after restart a node begins with an empty
// inbox, like a rebooted process.
func (h *Handle) Inbox() <-chan AppMessage { return h.inboxChan() }

// WaitMessage receives the next application message, giving up after
// timeout or when the node is stopped.
func (h *Handle) WaitMessage(timeout time.Duration) (AppMessage, bool) {
	n := h.node
	n.touch()
	clk := n.rt.clk
	inbox := h.inboxChan()
	deadline := clk.Now().Add(timeout)
	w := n.addWaiter()
	defer n.removeWaiter(w)
	for {
		select {
		case m := <-inbox:
			n.touch()
			return m, true
		default:
		}
		if n.stopping() {
			return AppMessage{}, false
		}
		rem := deadline.Sub(clk.Now())
		if rem <= 0 {
			return AppMessage{}, false
		}
		w.Wait(rem)
	}
}

func (h *Handle) inboxChan() chan AppMessage {
	h.busMu.Lock()
	defer h.busMu.Unlock()
	if h.inbox == nil {
		h.inbox = h.node.rt.takeInbox()
	}
	return h.inbox
}

// takeInbox hands out an empty inbox for the current experiment, reusing
// one a previous experiment returned when there is one.
func (r *Runtime) takeInbox() chan AppMessage {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ch chan AppMessage
	if n := len(r.inboxFree); n > 0 {
		ch, r.inboxFree = r.inboxFree[n-1], r.inboxFree[:n-1]
	} else {
		ch = make(chan AppMessage, inboxCapacity)
	}
	r.inboxUsed = append(r.inboxUsed, ch)
	return ch
}

// recycleInboxes is ResetExperiment's last step. Inboxes come back only
// here — never when a node stops — because only here is nobody left to
// deliver to them: no node is live, and the epoch bump just before has
// voided every delayed delivery of the old experiment. Unread messages
// are discarded, so the next experiment's nodes start with empty inboxes.
func (r *Runtime) recycleInboxes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ch := range r.inboxUsed {
		for len(ch) > 0 {
			<-ch
		}
	}
	r.inboxFree = append(r.inboxFree, r.inboxUsed...)
	r.inboxUsed = r.inboxUsed[:0]
}

// String implements fmt.Stringer.
func (h *Handle) String() string {
	return fmt.Sprintf("Handle(%s on %s)", h.Nickname(), h.HostName())
}
