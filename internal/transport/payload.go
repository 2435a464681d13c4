package transport

import (
	"bytes"
	"encoding/gob"
)

// EncodePayload gob-encodes v as a frame payload with a fresh encoder. The
// replicated chaos operations go through this pair, and so do application
// payloads whose type core's appCodec does not prime; a primed type's
// frames are these bytes too, checked against this pair once per type. The
// cluster control plane's own bodies (protocol messages and clock-sync
// stamps) do not: they have a fixed layout with a strict decoder of their
// own (internal/campaign/cluster_wire.go), because they are frequent and a
// peer of another protocol version must be refused, not half-read.
func EncodePayload[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodePayload decodes a frame payload written by EncodePayload[T].
func DecodePayload[T any](b []byte) (v T, err error) {
	err = gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}
