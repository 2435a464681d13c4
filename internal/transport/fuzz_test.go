package transport

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalFrame feeds the frame decoder — the first thing every
// socket read loop runs on bytes from the network — arbitrary input. It
// must never panic, and whatever it accepts must survive a re-encode:
// Unmarshal∘Marshal is the identity on messages.
func FuzzUnmarshalFrame(f *testing.F) {
	for _, m := range []Message{
		{},
		{Kind: KindNote, Epoch: 1, From: "black", To: "green", ToHost: "h2", State: "LEAD"},
		{Kind: KindApp, Epoch: 42, From: "black", FromHost: "h1", To: "green", ToHost: "h2", Payload: []byte("hello, wire")},
		{Kind: KindCtrl, From: "alpha", To: "beta", State: "reset", Payload: []byte{0xff, 0x00, 0x7f}},
		{Kind: KindSyncPing, Epoch: ^uint64(0), From: "alpha", ToHost: "h3"},
	} {
		body, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{KindApp, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		body, err := Marshal(m)
		if err != nil {
			if len(b) <= MaxFrame {
				t.Fatalf("accepted a %d-byte frame that does not re-encode: %v", len(b), err)
			}
			return // Unmarshal has no size limit of its own; the read loops do
		}
		back, err := Unmarshal(body)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip: %+v -> %+v (%v)", m, back, err)
		}
	})
}
