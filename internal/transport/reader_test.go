package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/intern"
)

// slotCollision returns two different short names that share a slot in a
// frame reader's names table.
func slotCollision(t testing.TB) (string, string) {
	t.Helper()
	first := make(map[uint8]string)
	for i := range 1 << 12 {
		s := fmt.Sprintf("peer%d", i)
		slot := intern.Slot([]byte(s))
		if other, ok := first[slot]; ok {
			return other, s
		}
		first[slot] = s
	}
	t.Fatal("no two names share a slot")
	return "", ""
}

// readerFrames are the messages TestFrameReaderMatchesUnmarshal reads in
// turn: two names sharing a slot, each after the other; empty strings;
// names one byte past intern.MaxLen and at it.
func readerFrames(t testing.TB) []Message {
	a, b := slotCollision(t)
	long := strings.Repeat("n", intern.MaxLen+1)
	at := long[1:]
	return []Message{
		{Kind: KindNote, Epoch: 1, From: a, FromHost: "h1", To: b, ToHost: "h2", State: "LEAD"},
		{Kind: KindNote, Epoch: 1, From: b, FromHost: "h1", To: a, ToHost: "h2", State: "LEAD"},
		{Kind: KindApp, Epoch: 2, From: a, FromHost: "h1", To: a, ToHost: "h1", Payload: []byte("vote")},
		{},
		{Kind: KindCtrl, From: long, FromHost: at, To: long, ToHost: at, Payload: []byte{0, 1, 2}},
		{Kind: KindCtrl, From: at, FromHost: long, To: at, ToHost: long, State: "reset"},
		{Kind: KindSyncPing, Epoch: ^uint64(0), From: "alpha", ToHost: "h3"},
	}
}

// TestFrameReaderMatchesUnmarshal: one warm frame reader decodes every
// frame, and every truncation of it read in between, to what a fresh
// decodeFrame makes of it, error included. The reader decodes out of its own
// buffer, which is overwritten after each read. The payload it returns is
// that buffer's bytes, clipped, which a handler only borrows; every frame
// it returned before must keep its header strings as they read: no string
// aliases the buffer. Run under -race in CI.
//
// Mutation-checked: a reader that slices its strings out of the buffer
// (unsafe.String) fails on the first frame read after an overwrite, and
// one that copies the payload fails its aliasing check.
func TestFrameReaderMatchesUnmarshal(t *testing.T) {
	r := newFrameReader()
	var seen, want []Message
	for pass := range 2 { // the second pass reads every name from a warm table
		for i, m := range readerFrames(t) {
			body, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{body[:len(body)/2], body[:len(body)-1], body} {
				n := copy(r.buf, in)
				got, gerr := r.decode(r.buf[:n])
				fresh, ferr := decodeFrame(in, nil)
				if fmt.Sprint(gerr) != fmt.Sprint(ferr) || !reflect.DeepEqual(got, fresh) {
					t.Fatalf("pass %d frame %d (%d of %d bytes): the reader reads %+v (%v), decodeFrame %+v (%v)",
						pass, i, len(in), len(body), got, gerr, fresh, ferr)
				}
				if p := got.Payload; len(p) > 0 && (unsafe.SliceData(p) != &r.buf[n-len(p)] || cap(p) != len(p)) {
					t.Fatalf("pass %d frame %d: the payload is not the read buffer's last %d bytes, clipped", pass, i, len(p))
				}
				for j := range r.buf[:n] {
					r.buf[j] ^= 0xff
				}
				if gerr == nil {
					got.Payload, fresh.Payload = nil, nil // lent, and now overwritten
					seen, want = append(seen, got), append(want, fresh)
				}
				for k := range seen {
					if !reflect.DeepEqual(seen[k], want[k]) {
						t.Fatalf("pass %d frame %d: overwriting the read buffer changed frame %d read before it: %+v, want %+v",
							pass, i, k, seen[k], want[k])
					}
				}
			}
		}
	}
}

// loopReader replays one TCP frame, length prefix and body, forever.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// tcpFrame is m's frame as the TCP wire writes it.
func tcpFrame(t testing.TB, m Message) []byte {
	body, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestFrameReaderAllocBudget: a warm reader allocates nothing, whether it
// decodes a UDP datagram's body or reads a TCP frame off a stream, with a
// payload or without: it lends the payload out of its buffer. Run under
// -race in CI.
func TestFrameReaderAllocBudget(t *testing.T) {
	for _, c := range []struct {
		m    Message
		want float64
	}{
		{Message{Kind: KindNote, Epoch: 3, From: "black", FromHost: "h1", To: "green", ToHost: "h2", State: "LEAD"}, 0},
		{Message{Kind: KindApp, Epoch: 3, From: "black", FromHost: "h1", To: "green", ToHost: "h2", Payload: []byte("vote")}, 0},
	} {
		r := newFrameReader()
		body, err := Marshal(c.m)
		if err != nil {
			t.Fatal(err)
		}
		n := copy(r.buf, body)
		decode := func() {
			if got, err := r.decode(r.buf[:n]); err != nil || got.State != c.m.State {
				t.Fatalf("decode: %+v %v", got, err)
			}
		}
		if got := testing.AllocsPerRun(100, decode); got != c.want {
			t.Errorf("a warm decode of %+v allocates %v objects, want %v", c.m, got, c.want)
		}
		src := &loopReader{frame: tcpFrame(t, c.m)}
		read := func() {
			if got, _, err := r.readFrame(src); err != nil || got.State != c.m.State {
				t.Fatalf("readFrame: %+v %v", got, err)
			}
		}
		if got := testing.AllocsPerRun(100, read); got != c.want {
			t.Errorf("a warm TCP frame read of %+v allocates %v objects, want %v", c.m, got, c.want)
		}
	}
}

// TestFrameReaderRefusesOversizeLength: a TCP length prefix past MaxFrame
// is refused before anything is read into the buffer.
func TestFrameReaderRefusesOversizeLength(t *testing.T) {
	hdr := []byte{0, 0, 0xf0, 0x01}
	if _, _, err := newFrameReader().readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("a frame length past MaxFrame was accepted")
	}
}

// TestWireRoundTripAllocBudget: a frame sent between two warm UDP or TCP
// endpoints allocates nothing, with a payload or without: a warm send
// encodes into the wire's buffer, and a warm receive lends the payload out
// of the read loop's (TestFrameReaderAllocBudget). Run under -race in CI.
func TestWireRoundTripAllocBudget(t *testing.T) {
	for _, kind := range []string{KindNameUDP, KindNameTCP} {
		eps, err := NewLoopbackCluster(kind, clusterHosts)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan int, 1)
		timeout := time.NewTimer(time.Hour) // reset per frame: time.After would allocate
		defer timeout.Stop()
		for _, ep := range eps {
			if err := ep.Start(func(m Message) { got <- len(m.Payload) }); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			m    Message
			want float64
		}{
			{Message{Kind: KindNote, From: "black", FromHost: "h1", To: "green", ToHost: "h2", State: "LEAD"}, 0},
			{Message{Kind: KindApp, From: "black", FromHost: "h1", To: "green", ToHost: "h2", Payload: []byte("vote")}, 0},
		} {
			roundTrip := func() {
				if err := eps["alpha"].SendHost("h2", c.m); err != nil {
					t.Fatal(err)
				}
				timeout.Reset(2 * time.Second)
				select {
				case n := <-got:
					if n != len(c.m.Payload) {
						t.Fatalf("a %d-byte payload arrived as %d bytes", len(c.m.Payload), n)
					}
				case <-timeout.C:
					t.Fatalf("%s frame lost on loopback", kind)
				}
			}
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != c.want {
				t.Errorf("a warm %s round trip of %+v allocates %v objects, want %v", kind, c.m, allocs, c.want)
			}
		}
		for _, ep := range eps {
			ep.Close()
		}
	}
}
