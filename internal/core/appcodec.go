package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/bits"
	"reflect"
	"sync"

	"repro/internal/transport"
)

// appCodec writes application payloads in a fresh gob encoder's bytes but
// describes each type once. A fresh frame for type T is P + uint(len X) + X:
// P holds the type definitions and the envelope's head H (id, field, T's
// name) with T's inline; X is T's id, the delimited value and the envelope's
// end. An encoder that has sent T writes uint(len H+X) + H + X. A primed
// entry is kept only if its first frame checks against the fresh bytes or
// value; a cached X must begin with the primed id, so no frame teaches a
// primed decoder a type; any failure drops the entry and decodes fresh.
type appCodec struct {
	encMu   sync.Mutex
	enc     map[reflect.Type]*primedGob // nil: the fresh path
	sendBuf []byte                      // the payload being sent (send)
	decMu   sync.Mutex
	dec     map[string]*primedGob // by P
}

const appCodecEntries = 16 // per side; a type or prefix beyond it goes fresh

// primedGob is one type's primed encoder, or one prefix's primed decoder.
type primedGob struct {
	buf    bytes.Buffer // the encoder's output; the decoder's input
	enc    *gob.Encoder
	dec    *gob.Decoder
	prefix []byte     // P (encoder)
	env    appPayload // the envelope being encoded, passed by pointer (encoder)
	head   []byte     // H
	id     uint64     // T's id, the non-negative gob int that begins X (decoder)
}

// send encodes v's frame payload into a buffer c owns and, under encMu,
// hands it to send, which must not keep it: a transport only borrows a
// payload. It returns the encoding error, having sent nothing.
func (c *appCodec) send(v interface{}, send func(payload []byte)) error {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	b, err := c.appendPayload(c.sendBuf[:0], v)
	if err != nil {
		return err
	}
	c.sendBuf = b
	send(b)
	return nil
}

// appendPayload appends v's frame payload to b; a nil b gets a slice of its
// own. c.encMu is held.
func (c *appCodec) appendPayload(b []byte, v interface{}) ([]byte, error) {
	t := reflect.TypeOf(v)
	e, known := c.enc[t]
	if !known && len(c.enc) < appCodecEntries {
		if c.enc == nil {
			c.enc = make(map[reflect.Type]*primedGob)
		}
		e = primeEncoder(v)
		c.enc[t] = e
	}
	if e != nil {
		if out, ok := e.appendFrame(b, v); ok {
			return out, nil
		}
		delete(c.enc, t)
	}
	fresh, err := transport.EncodePayload(appPayload{V: v})
	switch {
	case err != nil:
		return b, err
	case b == nil:
		return fresh, nil
	}
	return append(b, fresh...), nil
}

func primeEncoder(v interface{}) *primedGob {
	e := &primedGob{}
	e.enc = gob.NewEncoder(&e.buf)
	if !primeable(reflect.TypeOf(v), 0) || e.enc.Encode(appPayload{V: v}) != nil {
		return nil
	}
	fresh := bytes.Clone(e.buf.Bytes())
	last, _, head, ok := splitFrame(fresh)
	e.prefix, e.head = fresh[:last], head
	if b, same := e.appendFrame(nil, v); !ok || !same || !bytes.Equal(b, fresh) {
		return nil
	}
	return e
}

// appendFrame appends v, whose type e has sent, to b as P + uint(len X) + X.
func (e *primedGob) appendFrame(b []byte, v interface{}) ([]byte, bool) {
	e.buf.Reset()
	e.env.V = v // gob sends what a pointer points to, and boxing the pointer allocates nothing
	err := e.enc.Encode(&e.env)
	e.env.V = nil
	if err != nil {
		return b, false
	}
	_, w, _ := gobUint(e.buf.Bytes())
	x := e.buf.Bytes()[w+len(e.head):]
	if n := len(e.prefix) + 9 + len(x); cap(b)-len(b) < n {
		// Not slices.Grow, whose append of a make costs two allocations
		// under -race.
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = appendGobUint(append(b, e.prefix...), uint64(len(x)))
	return append(b, x...), true
}

func (c *appCodec) decode(b []byte) (interface{}, error) {
	last, x, head, split := splitFrame(b)
	c.decMu.Lock()
	defer c.decMu.Unlock()
	if d := c.dec[string(b[:last])]; d != nil {
		if v, ok := d.decode(b[x:]); ok {
			return v, nil
		}
		delete(c.dec, string(b[:last]))
	}
	env, err := transport.DecodePayload[appPayload](b)
	if err != nil || !split || len(c.dec) >= appCodecEntries || !primeable(reflect.TypeOf(env.V), 0) {
		return env.V, err
	}
	d := &primedGob{head: bytes.Clone(head)}
	d.dec = gob.NewDecoder(&d.buf)
	d.buf.Write(b)
	d.id, _, _ = gobUint(b[x:])
	if d.id&1 == 0 && d.dec.Decode(new(appPayload)) == nil && d.buf.Len() == 0 {
		if v, ok := d.decode(b[x:]); ok && reflect.DeepEqual(v, env.V) {
			if c.dec == nil {
				c.dec = make(map[string]*primedGob)
			}
			c.dec[string(b[:last])] = d
		}
	}
	return env.V, nil
}

// decode decodes the frame whose X is x, reading the rebuilt message whole.
func (d *primedGob) decode(x []byte) (interface{}, bool) {
	if id, _, ok := gobUint(x); !ok || id != d.id {
		return nil, false
	}
	d.buf.Reset()
	d.buf.Write(appendGobUint(d.buf.AvailableBuffer(), uint64(len(d.head)+len(x))))
	d.buf.Write(d.head)
	d.buf.Write(x)
	var env appPayload
	if d.dec.Decode(&env) != nil || d.buf.Len() != 0 {
		return nil, false
	}
	return env.V, true
}

// splitFrame returns where b's last gob message and its body X begin, and H
// from the first earlier message whose first int is non-negative.
func splitFrame(b []byte) (last, x int, head []byte, ok bool) {
	for at := 0; at < len(b); {
		n, w, valid := gobUint(b[at:])
		if !valid || n > uint64(len(b)-at-w) {
			return 0, 0, nil, false
		}
		next := at + w + int(n)
		if next == len(b) {
			return at, at + w, head, head != nil
		}
		for i, end := 0, at+w; head == nil && i < 3; i++ { // id, field, name
			v, vw, valid := gobUint(b[end:next])
			if end += vw; !valid || i == 0 && v&1 != 0 {
				break
			} else if i == 2 && v <= uint64(next-end) {
				head = b[at+w : end+int(v)]
			}
		}
		at = next
	}
	return 0, 0, nil, false
}

// gobUint reads the gob unsigned integer that begins b, and its width.
func gobUint(b []byte) (x uint64, w int, ok bool) {
	if len(b) == 0 || int8(b[0]) < -8 || len(b) <= -int(int8(b[0])) {
		return 0, 0, false
	} else if b[0] < 0x80 {
		return uint64(b[0]), 1, true
	}
	w = 1 - int(int8(b[0]))
	var be [8]byte
	copy(be[9-w:], b[1:w])
	return binary.BigEndian.Uint64(be[:]), w, true
}

// appendGobUint appends x as gob writes it: a byte below 0x80, or minus the
// count of big-endian bytes that follow.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := (bits.Len64(x) + 7) / 8
	return binary.BigEndian.AppendUint64(append(b, byte(-n)), x<<(64-8*n))[:len(b)+1+n]
}

// primeable reports whether t, a struct type at depth 0, reaches no interface
// (whose values define types in X) and no GobEncoder within 8 levels.
func primeable(t reflect.Type, depth int) bool {
	ge := reflect.TypeFor[gob.GobEncoder]()
	if t == nil || depth == 0 && t.Kind() != reflect.Struct || depth > 8 || t.Kind() == reflect.Interface ||
		t.Implements(ge) || reflect.PointerTo(t).Implements(ge) {
		return false
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return primeable(t.Elem(), depth+1)
	case reflect.Map:
		return primeable(t.Key(), depth+1) && primeable(t.Elem(), depth+1)
	case reflect.Struct:
		for i := range t.NumField() {
			if !primeable(t.Field(i).Type, depth+1) {
				return false
			}
		}
	}
	return true
}
