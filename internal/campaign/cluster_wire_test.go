package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"maps"
	"reflect"
	"sync"
	"testing"

	"repro/internal/intern"
	"repro/internal/transport"
)

// The gob pair in transport (EncodePayload/DecodePayload) is what the
// control plane sent up to protocol version 2. Here it is the reference
// the fixed layout is checked against: a message must come back from the
// layout exactly as it comes back from gob.

// gobRoundTrip is v through the gob reference.
func gobRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatalf("gob reference: encoding %+v: %v", v, err)
	}
	back, err := transport.DecodePayload[T](b)
	if err != nil {
		t.Fatalf("gob reference: decoding %+v: %v", v, err)
	}
	return back
}

// encode returns cm's payload in one allocation of exactly its size: the
// reference a member's appendWire into its own send buffer
// (Member.sendCtrl) is checked against.
func (cm *clusterMsg) encode() []byte { return cm.appendWire(make([]byte, 0, cm.wireSize())) }

// encode returns w's payload in one allocation (see clusterMsg.encode).
func (w syncWire) encode() []byte { return w.appendTo(make([]byte, 0, syncWireSize)) }

// ctrlFrame is the frame of one protocol message op from peer from to peer
// to, as Member.sendCtrl sends it, in a fresh payload.
func ctrlFrame(from, to, op string, msg clusterMsg) transport.Message {
	msg.Peer = from
	return transport.Message{Kind: transport.KindCtrl, From: from, To: to, State: op, Payload: msg.encode()}
}

// wireGen draws field values from fuzz input; every draw past its end is
// zero, so any input generates a message.
type wireGen struct{ b []byte }

func (g *wireGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *wireGen) int() int64 {
	var p [8]byte
	g.b = g.b[copy(p[:], g.b):]
	return int64(binary.BigEndian.Uint64(p[:]))
}

func (g *wireGen) bool() bool { return g.byte()&1 == 1 }

func (g *wireGen) string() string {
	n := min(int(g.byte()%24), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

// clusterMsg generates a message, with empty but non-nil collections
// among them.
func (g *wireGen) clusterMsg() clusterMsg {
	cm := clusterMsg{Index: int(g.int()), Peer: g.string(), Completed: g.bool()}
	if n := g.byte(); n&1 == 1 {
		cm.Outcomes = make(map[string]string)
		for i := 0; i < int(n>>1)%5; i++ {
			cm.Outcomes[g.string()] = g.string()
		}
	}
	cm.Doc, cm.More = g.string(), g.bool()
	if n := g.byte(); n&1 == 1 {
		cm.Dropped = []string{}
		for i := 0; i < int(n>>1)%4; i++ {
			cm.Dropped = append(cm.Dropped, g.string())
		}
	}
	cm.Seq, cm.Total, cm.Version = int(g.int()), int(g.int()), int(g.int())
	cm.Fingerprint, cm.Point, cm.TraceOn = g.string(), g.string(), g.bool()
	return cm
}

func (g *wireGen) syncWire() syncWire {
	return syncWire{Seq: int(g.int()), RemoteRecv: g.int(), RemoteSend: g.int(), ProcRecv: g.int(), ProcSend: g.int()}
}

// FuzzDecodeClusterWire fuzzes the control plane's two decoders, seeded
// with one real payload per frame kind and op of a matching two-endpoint
// run (which must itself succeed: peers that agree pass the reset
// barrier). On every input:
//   - neither decoder panics;
//   - whatever a decoder accepts encodes back to exactly the input bytes,
//     since the layout is canonical;
//   - the clusterMsg and syncWire generated from the input come back from
//     the layout equal to what the gob reference gives back.
//
// Mutation checks, each in a scratch copy of the package, under CI's
// `go test -run xxx -fuzz FuzzDecodeClusterWire -fuzztime 10s` with the
// fuzz cache cleared: a decoder without end's trailing-bytes check fails
// on the seed corpus itself (a ctrl payload's prefix decodes as a
// syncWire), and one whose bool accepts the byte 2 was found by the
// one-byte edit below within the first second, in 5 of 5 runs (without
// that edit, in 2 of 4). Both are caught by the re-encode property.
func FuzzDecodeClusterWire(f *testing.F) {
	ta, tb := pairEndpoints(f)
	coordinator := pairMember(f, stepCampaign(f, 2, 1), ta)
	member := pairMember(f, stepCampaign(f, 2, 1), tb)
	var mu sync.Mutex
	seen := map[string][]byte{} // first payload of each frame kind and op
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
	res, err := coordinator.RunStudy(context.Background(), false)
	if err != nil || len(res.Studies[0].Records) != 2 || !res.Studies[0].Records[1].Accepted {
		f.Fatalf("matching cluster: %+v, %v", res, err)
	}
	if err := awaitServe(f, served); err != nil {
		f.Fatal(err)
	}
	for _, key := range []string{"syncping ", "syncpong ", "ctrl " + opReset, "ctrl " + opResetOK, "ctrl " + opStartOK, "ctrl " + opDone, "ctrl " + opResult, "ctrl " + opStopOK} {
		if seen[key] == nil {
			f.Fatalf("the run sent no %q frame (have %v)", key, sortedKeys(nil, seen))
		}
	}
	for _, b := range seen {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		canonical(t, b)

		g := wireGen{b}
		at, to := int(g.byte())<<8|int(g.byte()), g.byte()%4 // one byte edit, below
		cm := g.clusterMsg()
		enc := cm.encode()
		got, err := decodeClusterMsg(enc, nil)
		if err != nil {
			t.Fatalf("%+v does not decode: %v", cm, err)
		}
		want := gobRoundTrip(t, cm)
		if len(want.Outcomes) == 0 {
			// gob gives an empty map back non-nil; the layout, like the
			// protocol, does not tell it from a nil one.
			want.Outcomes = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: the layout gives back %+v, gob %+v", cm, got, want)
		}
		w := g.syncWire()
		gotW, err := decodeSyncWire(w.encode())
		if err != nil {
			t.Fatalf("%+v does not decode: %v", w, err)
		}
		if want := gobRoundTrip(t, w); gotW != want {
			t.Fatalf("%+v: the layout gives back %+v, gob %+v", w, gotW, want)
		}

		// A valid payload with one byte set to a small value — what bools
		// and short counts hold, where a lax decoder parts from a strict
		// one — decodes canonically or not at all. Raw inputs reach those
		// bytes with such values far more rarely.
		enc[at%len(enc)] = to
		canonical(t, enc)
	})
}

// canonical checks that whatever either decoder accepts from b encodes
// back to exactly b.
func canonical(t *testing.T, b []byte) {
	t.Helper()
	if cm, err := decodeClusterMsg(b, nil); err == nil {
		if again := cm.encode(); !bytes.Equal(again, b) {
			t.Fatalf("clusterMsg %+v decoded from %x encodes as %x", cm, b, again)
		}
	}
	if w, err := decodeSyncWire(b); err == nil {
		if again := w.encode(); !bytes.Equal(again, b) {
			t.Fatalf("syncWire %+v decoded from %x encodes as %x", w, b, again)
		}
	}
}

// mapSink keeps mapAllocs' map on the heap, as a decoded message's is.
var mapSink map[string]string

// TestClusterWireAllocs pins what the codec allocates, a tier-1 budget
// like the study budgets: encoding is one allocation of the payload's
// exact size, and none into a warm buffer (the member's send path); a sync
// stamp decodes with none, and a message decodes allocating only its
// strings (each copied out of the frame, or none for names a warm table
// holds, outcome keys and values among them) and its outcome map. Under gob a syncWire cost 20 allocations to
// encode and 167 to decode, and a startok-sized clusterMsg 23 and 217.
func TestClusterWireAllocs(t *testing.T) {
	budget := func(name string, want float64, run func()) {
		t.Helper()
		got := testing.AllocsPerRun(100, run)
		t.Logf("%s: %.1f allocations (budget %.0f)", name, got, want)
		if got > want {
			t.Errorf("%s: %.1f allocations, budget %.0f", name, got, want)
		}
	}
	w := syncWire{Seq: 41, RemoteRecv: 1 << 40, RemoteSend: 1<<40 + 9, ProcRecv: 1 << 50, ProcSend: 1<<50 + 7}
	wb := w.encode()
	if len(wb) != syncWireSize {
		t.Fatalf("syncWire payload is %d bytes, want %d", len(wb), syncWireSize)
	}
	budget("syncWire encode", 1, func() { wb = w.encode() })
	budget("syncWire decode", 0, func() {
		if got, err := decodeSyncWire(wb); err != nil || got != w {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	})

	startok := clusterMsg{Index: 17, Peer: "member-b"}
	sb := startok.encode()
	if len(sb) != startok.wireSize() || cap(sb) != len(sb) {
		t.Fatalf("payload is %d bytes in a %d-byte buffer, want exactly %d", len(sb), cap(sb), startok.wireSize())
	}
	budget("startok encode", 1, func() { sb = startok.encode() })
	budget("startok decode", 1, func() { // Peer
		if _, err := decodeClusterMsg(sb, nil); err != nil {
			t.Fatal(err)
		}
	})
	var names intern.Table
	budget("startok decode, warm table", 0, func() {
		if got, err := decodeClusterMsg(sb, &names); err != nil || got.Peer != startok.Peer {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	})

	outcomes := map[string]string{"alpha": "exited", "beta": "crashed", "gamma": "exited"}
	result := clusterMsg{Index: 17, Peer: "member-b", Outcomes: outcomes, Doc: "timeline chunk", More: true, Seq: 1, Total: 3}
	rb := result.encode()
	if len(rb) != result.wireSize() {
		t.Fatalf("payload is %d bytes, wireSize says %d", len(rb), result.wireSize())
	}
	buf := make([]byte, 0, 256)
	for _, c := range []struct {
		name string
		add  func([]byte) []byte
		want []byte
	}{
		{"syncWire appendTo", w.appendTo, wb},
		{"startok appendWire", startok.appendWire, sb},
		{"result appendWire", result.appendWire, rb},
	} {
		budget(c.name+", warm buffer", 0, func() { buf = c.add(buf[:0]) })
		if !bytes.Equal(buf, c.want) {
			t.Errorf("%s: %x, encode gives %x", c.name, buf, c.want)
		}
	}
	mapAllocs := testing.AllocsPerRun(100, func() {
		m := make(map[string]string, len(outcomes))
		for k, v := range outcomes {
			m[k] = v
		}
		mapSink = m
	})
	strs := float64(2 + 2*len(outcomes)) // Peer, Doc, each key and value
	budget("result decode", strs+mapAllocs, func() {
		if _, err := decodeClusterMsg(rb, nil); err != nil {
			t.Fatal(err)
		}
	})
	budget("result decode, warm table", 1+mapAllocs, func() { // Doc
		if got, err := decodeClusterMsg(rb, &names); err != nil || !maps.Equal(got.Outcomes, outcomes) {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	})
}
