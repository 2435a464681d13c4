package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// The built-in applications' payload types, field for field: apps/election
// (voteMsg, heartbeatMsg), apps/quorum (announceMsg, commitMsg, finalMsg,
// abortMsg) and apps/replica (updateMsg, syncReqMsg). The apps import
// core, so a core test declares the shapes itself.
type (
	voteMsg struct {
		Round int
		Value int64
	}
	heartbeatMsg struct{ Leader string }
	announceMsg  struct{ Round int }
	commitMsg    struct {
		Round int
		Share uint64
	}
	finalMsg struct {
		Round     int
		Signers   []string
		Aggregate uint64
	}
	abortMsg  struct{ Round int }
	updateMsg struct {
		Seq   uint64
		Value uint64
	}
	syncReqMsg struct{}
)

func init() {
	for _, v := range []interface{}{voteMsg{}, heartbeatMsg{}, announceMsg{}, commitMsg{}, finalMsg{}, abortMsg{}, updateMsg{}, syncReqMsg{}} {
		gob.Register(v)
	}
}

// encode returns v's frame payload in a fresh slice: the reference send's
// payload, appended into the codec's own buffer, is checked against.
func (c *appCodec) encode(v interface{}) ([]byte, error) {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	return c.appendPayload(nil, v)
}

// appCodecPayloads is every built-in payload type over a few values, zero
// and extreme ones included, plus payloads the codec leaves to the fresh
// path: a corruption envelope and two predeclared types.
func appCodecPayloads() []interface{} {
	return []interface{}{
		voteMsg{Round: 1, Value: 7}, voteMsg{}, voteMsg{Round: -3, Value: -1 << 62},
		heartbeatMsg{Leader: "green"}, heartbeatMsg{}, heartbeatMsg{Leader: "a leader whose name is longer than one hundred and twenty-eight bytes, so that the value's byte count takes more than one byte on the wire"},
		announceMsg{Round: 2}, commitMsg{Round: 2, Share: 1<<64 - 1},
		finalMsg{Round: 2, Signers: []string{"h1", "h2", "h3"}, Aggregate: 99}, finalMsg{Round: 3}, finalMsg{Signers: []string{""}},
		abortMsg{Round: 4}, updateMsg{Seq: 5, Value: 5}, updateMsg{},
		syncReqMsg{},
		simnet.Corrupted{Original: voteMsg{Round: 1, Value: 7}}, "hello", 42,
	}
}

// printed is how the payload tests compare values: NaN- and map-order-proof,
// and blind to a nil slice decoding from an empty one.
func printed(v interface{}) string { return fmt.Sprintf("%T %+v", v, v) }

// TestAppCodecBytesMatchGob: every frame the codec writes is the frame a
// fresh gob encoder writes, value after value and type after type, and a
// fresh decoder reads it back; a second runtime's codec decodes each frame
// to the same value. The struct types are primed on both sides, and the
// rest take the fresh path.
func TestAppCodecBytesMatchGob(t *testing.T) {
	var enc, dec appCodec
	for repeat := 0; repeat < 3; repeat++ {
		for _, v := range appCodecPayloads() {
			got, err := enc.encode(v)
			if err != nil {
				t.Fatalf("encode %s: %v", printed(v), err)
			}
			want, err := transport.EncodePayload(appPayload{V: v})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("repeat %d, %s:\ncodec % x\n  gob % x", repeat, printed(v), got, want)
			}
			if back, err := transport.DecodePayload[appPayload](got); err != nil || printed(back.V) != printed(v) {
				t.Fatalf("a fresh decoder reads %s back as %s (%v)", printed(v), printed(back.V), err)
			}
			if back, err := dec.decode(got); err != nil || printed(back) != printed(v) {
				t.Fatalf("the codec decodes %s as %s (%v)", printed(v), printed(back), err)
			}
		}
	}
	for _, v := range appCodecPayloads() {
		_, isStruct := v.(simnet.Corrupted)
		isStruct = !isStruct && reflect.TypeOf(v).Kind() == reflect.Struct
		if e := enc.enc[reflect.TypeOf(v)]; (e != nil) != isStruct {
			t.Errorf("%T: primed encoder %v, want %v", v, e != nil, isStruct)
		}
	}
	decoders := 0
	for _, d := range dec.dec {
		if d != nil {
			decoders++
		}
	}
	if decoders != 8 {
		t.Fatalf("%d primed decoders, want 8 (one per built-in struct type)", decoders)
	}
}

// TestAppCodecSendMatchesEncode: the send path, which appends each frame
// into the codec's reused buffer, gives the bytes encode gives in a fresh
// slice, value after value and type after type, and once warm it allocates
// less than encode: not the frame.
func TestAppCodecSendMatchesEncode(t *testing.T) {
	var enc, snd appCodec
	for repeat := 0; repeat < 3; repeat++ {
		for _, v := range appCodecPayloads() {
			want := appFrame(t, &enc, v)
			var got []byte
			if err := snd.send(v, func(b []byte) { got = bytes.Clone(b) }); err != nil {
				t.Fatalf("send %s: %v", printed(v), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("repeat %d, %s:\n  send % x\nencode % x", repeat, printed(v), got, want)
			}
		}
	}
	v := voteMsg{Round: 3, Value: 41}
	encode := testing.AllocsPerRun(100, func() { appFrame(t, &enc, v) })
	send := testing.AllocsPerRun(100, func() {
		if err := snd.send(v, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm voteMsg: encode %.1f allocations, send %.1f", encode, send)
	if send > encode-1 {
		t.Errorf("a warm send allocates %.1f objects, encode %.1f: the send buffer is not reused", send, encode)
	}
}

// appFrame is the codec's frame for v, failing the test on an error.
func appFrame(t testing.TB, c *appCodec, v interface{}) []byte {
	t.Helper()
	b, err := c.encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// teachFrames returns two frames built from base, a voteMsg frame. The
// first carries, inside its last message, a definition of a new type id
// (a copy of voteMsg's) and a value of that id; a fresh decoder accepts
// it. The second is a value of the new id alone, which a fresh decoder
// refuses because it never saw the definition. A primed decoder that let
// the first frame teach it the id would accept the second.
func teachFrames(t testing.TB, base []byte) (teach, ref []byte) {
	t.Helper()
	last, _, head, ok := splitFrame(base)
	if !ok {
		t.Fatal("a voteMsg frame does not split")
	}
	prefix, m := base[:last], base[last:]
	// voteMsg's definition follows the head, to the end of the prefix:
	// voteMsg reaches no other type that needs one.
	at := bytes.Index(prefix, head)
	_, w, _ := gobUint(prefix[at+len(head):])
	def := prefix[at+len(head)+w:] // voteMsg's wire type
	_, cw, _ := gobUint(m)
	x := m[cw:]
	id, iw, _ := gobUint(x)               // voteMsg's id, then the delimited value and the envelope's end
	fresh := id + 80                      // an even number: a non-negative id no frame defines
	xTeach := appendGobUint(nil, fresh-1) // -N, as gob writes a negative int
	xTeach = append(xTeach, def...)
	xTeach = appendGobUint(xTeach, 0)
	xTeach = appendGobUint(xTeach, fresh)
	xTeach = append(xTeach, x[iw:]...)
	xRef := append(appendGobUint(nil, fresh), x[iw:]...)
	for _, x := range [][]byte{xTeach, xRef} {
		b := appendGobUint(bytes.Clone(prefix), uint64(len(x)))
		if teach == nil {
			teach = append(b, x...)
		} else {
			ref = append(b, x...)
		}
	}
	return teach, ref
}

// FuzzAppCodecMatchesGob pushes three frames through one codec, as one
// runtime receives them: the codec accepts a frame exactly when a fresh
// gob decoder does, and then decodes the value that decoder decodes
// (compared printed, as payloadRoundTrip compares). Seeds are real frames
// of the built-in payloads, whose first frame primes a decoder, and
// mutations of them: another type's X after a primed prefix, cut and
// extended frames, and a frame that defines a type inside its X followed
// by one that uses the type.
//
// Mutation check, in a copy of the tree: appDecoder.decode accepting X
// whatever id begins it (no comparison with the primed, non-negative id)
// fails the teach seed — the first frame teaches the primed decoder the
// new id, and it then accepts the second frame, which a fresh decoder
// refuses.
func FuzzAppCodecMatchesGob(f *testing.F) {
	var c appCodec
	frames := map[string][]byte{}
	for _, v := range appCodecPayloads() {
		frames[printed(v)] = appFrame(f, &c, v)
	}
	vote := appFrame(f, &c, voteMsg{Round: 1, Value: 7})
	vote2 := appFrame(f, &c, voteMsg{Round: 9, Value: -9})
	final := appFrame(f, &c, finalMsg{Round: 2, Signers: []string{"h1", "h2"}})
	beat := appFrame(f, &c, heartbeatMsg{Leader: "green"})
	last, _, _, _ := splitFrame(vote)
	flast, _, _, _ := splitFrame(final)
	teach, ref := teachFrames(f, vote)
	if _, err := transport.DecodePayload[appPayload](teach); err != nil {
		f.Fatalf("a fresh decoder refuses the frame that defines a type in its X: %v", err)
	}
	if _, err := transport.DecodePayload[appPayload](ref); err == nil {
		f.Fatal("a fresh decoder accepts a value of a type no frame it read defines")
	}
	for _, seed := range [][3][]byte{
		{vote, vote2, vote},
		{final, vote, final},
		{beat, frames[printed("hello")], frames[printed(42)]},
		{frames[printed(simnet.Corrupted{Original: voteMsg{Round: 1, Value: 7}})], vote, frames[printed(syncReqMsg{})]},
		{vote, append(bytes.Clone(vote[:last]), final[flast:]...), vote2}, // finalMsg's X after voteMsg's prefix
		{vote, vote[:len(vote)-1], append(bytes.Clone(vote), 1, 0)},       // cut, and one message more
		{vote, teach, ref},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, a, b, d []byte) {
		var c appCodec
		for i, frame := range [][]byte{a, b, d} {
			got, err := c.decode(frame)
			want, werr := transport.DecodePayload[appPayload](frame)
			if (err == nil) != (werr == nil) {
				t.Fatalf("frame %d: codec error %v, fresh gob error %v", i, err, werr)
			}
			if err == nil && printed(got) != printed(want.V) {
				t.Fatalf("frame %d: codec decodes %s, fresh gob %s", i, printed(got), printed(want.V))
			}
		}
	})
}

// TestAppCodecDecodeDoesNotAlias: a value the codec decodes owns its
// memory. Overwriting the frame and the primed decoder's scratch after
// decoding, on the priming frame and on a cached one, leaves each value
// as it was.
func TestAppCodecDecodeDoesNotAlias(t *testing.T) {
	var enc, dec appCodec
	for _, v := range []interface{}{
		heartbeatMsg{Leader: "green"},
		finalMsg{Round: 2, Signers: []string{"h1", "h2", "h3"}, Aggregate: 99},
	} {
		var got []interface{}
		var frames [][]byte
		for i := 0; i < 2; i++ {
			b := appFrame(t, &enc, v)
			back, err := dec.decode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, frames = append(got, back), append(frames, b)
		}
		for _, b := range frames {
			for i := range b {
				b[i] = 'x'
			}
		}
		for _, d := range dec.dec {
			d.buf.Reset()
			scratch := d.buf.AvailableBuffer()
			for i := range scratch[:cap(scratch)] {
				scratch[:cap(scratch)][i] = 'x'
			}
		}
		for i, back := range got {
			if printed(back) != printed(v) {
				t.Errorf("decode %d of %s changed to %s when its frame and the scratch were overwritten", i+1, printed(v), printed(back))
			}
		}
	}
}

// TestAppCodecAllocs pins what a warm voteMsg round trip allocates:
// encoding on one runtime's codec and decoding on another's. A fresh gob
// encoder and decoder per frame cost 199 allocations. The budget was 7
// until the primed encoder took its envelope by pointer (6).
func TestAppCodecAllocs(t *testing.T) {
	var enc, dec appCodec
	v := voteMsg{Round: 3, Value: 41}
	round := func() {
		b, err := enc.encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := dec.decode(b); err != nil || back != v {
			t.Fatalf("round trip: %v, %v", back, err)
		}
	}
	round()
	fresh := testing.AllocsPerRun(100, func() {
		b, err := transport.EncodePayload(appPayload{V: v})
		if err != nil {
			t.Fatal(err)
		}
		if back, err := transport.DecodePayload[appPayload](b); err != nil || back.V != v {
			t.Fatalf("round trip: %v, %v", back, err)
		}
	})
	const budget = 6
	got := testing.AllocsPerRun(100, round)
	t.Logf("warm round trip: %.1f allocations (budget %d; fresh gob: %.1f)", got, budget, fresh)
	if got > budget {
		t.Errorf("warm voteMsg round trip: %.1f allocations, budget %d", got, budget)
	}
}

// TestAppCodecConcurrent: one runtime's senders share its codec's
// encoders, and its read goroutines share its decoders. Run under -race.
func TestAppCodecConcurrent(t *testing.T) {
	var enc, dec appCodec
	payloads := appCodecPayloads()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				v := payloads[(g+i)%len(payloads)]
				b, err := enc.encode(v)
				if err != nil {
					t.Error(err)
					return
				}
				if back, err := dec.decode(b); err != nil || printed(back) != printed(v) {
					t.Errorf("%s decoded as %s (%v)", printed(v), printed(back), err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
