package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format of one frame body (shared by UDP datagrams and TCP frames):
//
//	u8   kind
//	u64  epoch (big-endian)
//	str  From, FromHost, To, ToHost, State   (u16 length + bytes each)
//	u32  payload length + bytes
//
// TCP prefixes each body with a u32 big-endian length; UDP sends one body
// per datagram.

// MaxFrame bounds a frame body. It keeps UDP bodies within a single
// datagram and stops a corrupt TCP length prefix from allocating wildly.
const MaxFrame = 60 * 1024

// Overhead is the number of bytes Marshal adds to m's payload: kind,
// epoch, the five header strings with their lengths, and the payload
// length. A sender sizing a payload to fit one frame budgets
// MaxFrame - Overhead(m).
func Overhead(m Message) int {
	return 1 + 8 + 5*2 + len(m.From) + len(m.FromHost) + len(m.To) + len(m.ToHost) + len(m.State) + 4
}

// Marshal encodes m into a frame body.
func Marshal(m Message) ([]byte, error) {
	strs := [5]string{m.From, m.FromHost, m.To, m.ToHost, m.State}
	for _, s := range strs {
		if len(s) > 0xffff {
			return nil, fmt.Errorf("transport: field of %d bytes exceeds string limit", len(s))
		}
	}
	n := Overhead(m) + len(m.Payload)
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	b := make([]byte, 0, n)
	b = append(b, m.Kind)
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	for _, s := range strs {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Payload)))
	b = append(b, m.Payload...)
	return b, nil
}

// Unmarshal decodes a frame body.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	if len(b) < 9 {
		return m, fmt.Errorf("transport: frame truncated at header (%d bytes)", len(b))
	}
	m.Kind = b[0]
	m.Epoch = binary.BigEndian.Uint64(b[1:9])
	b = b[9:]
	fields := [5]*string{&m.From, &m.FromHost, &m.To, &m.ToHost, &m.State}
	for _, f := range fields {
		if len(b) < 2 {
			return m, fmt.Errorf("transport: frame truncated at string length")
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return m, fmt.Errorf("transport: frame truncated at string body")
		}
		*f = string(b[:n])
		b = b[n:]
	}
	if len(b) < 4 {
		return m, fmt.Errorf("transport: frame truncated at payload length")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) != n {
		return m, fmt.Errorf("transport: payload length %d does not match remaining %d bytes", n, len(b))
	}
	if n > 0 {
		m.Payload = append([]byte(nil), b...)
	}
	return m, nil
}

// WriteFrame writes one length-prefixed frame body to w (the TCP framing).
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
