package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// FuzzUnmarshalFrame feeds the frame decoder — the first thing every
// socket read loop runs on bytes from the network — arbitrary input. It
// must never panic, and whatever it accepts must survive a re-encode:
// decodeFrame∘Marshal is the identity on messages. A read loop's frame
// reader, its names table warmed on the seed frames, decodes each input
// to what decodeFrame does, error included; its payload is the last bytes
// it read, clipped, and no header string aliases them.
func FuzzUnmarshalFrame(f *testing.F) {
	var seeds [][]byte
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
		seeds = append(seeds, body)
	}
	f.Add([]byte{})
	f.Add([]byte{KindApp, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeFrame(b, nil)
		var r frameReader
		for _, s := range seeds {
			if _, err := r.decode(s); err != nil {
				t.Fatal(err)
			}
		}
		in := bytes.Clone(b)
		got, gerr := r.decode(in)
		if fmt.Sprint(gerr) != fmt.Sprint(err) || !reflect.DeepEqual(got, m) {
			t.Fatalf("a warm reader reads %+v (%v), decodeFrame %+v (%v)", got, gerr, m, err)
		}
		if err != nil {
			return
		}
		if p := got.Payload; len(p) > 0 && (unsafe.SliceData(p) != &in[len(in)-len(p)] || cap(p) != len(p)) {
			t.Fatalf("the payload is not the last %d bytes read, clipped", len(p))
		}
		for i := range in {
			in[i] ^= 0xff
		}
		if got.Payload = m.Payload; !reflect.DeepEqual(got, m) {
			t.Fatalf("overwriting the bytes read changed the header: %+v, want %+v", got, m)
		}
		body, err := Marshal(m)
		if err != nil {
			if len(b) <= MaxFrame {
				t.Fatalf("accepted a %d-byte frame that does not re-encode: %v", len(b), err)
			}
			return // decodeFrame has no size limit of its own; the read loops do
		}
		back, err := decodeFrame(body, nil)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip: %+v -> %+v (%v)", m, back, err)
		}
	})
}
