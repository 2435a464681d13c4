package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/intern"
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
// datagram and sizes the buffer each read loop reads bodies into, so a
// corrupt TCP length prefix cannot make a read loop allocate.
const MaxFrame = 60 * 1024

// Overhead is the number of bytes Marshal adds to m's payload: kind,
// epoch, the five header strings with their lengths, and the payload
// length. A sender sizing a payload to fit one frame budgets
// MaxFrame - Overhead(m).
func Overhead(m Message) int {
	return 1 + 8 + 5*2 + len(m.From) + len(m.FromHost) + len(m.To) + len(m.ToHost) + len(m.State) + 4
}

// frameSize returns the size of m's frame body, or why it fits in none.
func frameSize(m Message) (int, error) {
	for _, s := range [5]string{m.From, m.FromHost, m.To, m.ToHost, m.State} {
		if len(s) > 0xffff {
			return 0, fmt.Errorf("transport: field of %d bytes exceeds string limit", len(s))
		}
	}
	n := Overhead(m) + len(m.Payload)
	if n > MaxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	return n, nil
}

// appendFrame appends the frame body of m, which frameSize accepts, to dst.
func appendFrame(dst []byte, m Message) []byte {
	dst = append(dst, m.Kind)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	for _, s := range [5]string{m.From, m.FromHost, m.To, m.ToHost, m.State} {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...)
}

// Marshal encodes m into a frame body.
func Marshal(m Message) ([]byte, error) {
	n, err := frameSize(m)
	if err != nil {
		return nil, err
	}
	return appendFrame(make([]byte, 0, n), m), nil
}

// decodeFrame decodes a frame body, reading its header strings through
// names (a nil table copies each). The strings never alias b; the payload
// is b's own bytes, clipped, which a handler only borrows (see Handler).
func decodeFrame(b []byte, names *intern.Table) (Message, error) {
	var m Message
	if len(b) < 9 {
		return m, fmt.Errorf("transport: frame truncated at header (%d bytes)", len(b))
	}
	m.Kind = b[0]
	m.Epoch = binary.BigEndian.Uint64(b[1:9])
	b = b[9:]
	for _, f := range [5]*string{&m.From, &m.FromHost, &m.To, &m.ToHost, &m.State} {
		if len(b) < 2 {
			return m, fmt.Errorf("transport: frame truncated at string length")
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return m, fmt.Errorf("transport: frame truncated at string body")
		}
		*f = names.String(b[:n])
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
		m.Payload = b[:n:n]
	}
	return m, nil
}

// frameReader is one read loop's decoder: the buffer it reads bodies into,
// and a table of the header names it has returned, which repeat frame after
// frame. The strings it returns never alias buf; the payload it returns is
// buf's bytes, lent to the handler until the next read overwrites them.
type frameReader struct {
	buf   []byte
	names intern.Table
}

func newFrameReader() *frameReader { return &frameReader{buf: make([]byte, MaxFrame+1)} }

// decode decodes the frame body b, typically a prefix of r.buf.
func (r *frameReader) decode(b []byte) (Message, error) { return decodeFrame(b, &r.names) }

// readFrame reads one length-prefixed body (the TCP framing) from src into
// r.buf and decodes it; n is the body's length.
func (r *frameReader) readFrame(src io.Reader) (m Message, n int, err error) {
	if _, err = io.ReadFull(src, r.buf[:4]); err != nil {
		return m, 0, err
	}
	size := binary.BigEndian.Uint32(r.buf)
	if size > MaxFrame {
		return m, 0, fmt.Errorf("transport: frame length %d exceeds limit %d", size, MaxFrame)
	}
	n = int(size)
	if _, err = io.ReadFull(src, r.buf[:n]); err != nil {
		return m, 0, err
	}
	m, err = r.decode(r.buf[:n])
	return m, n, err
}
