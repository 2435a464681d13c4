package transport

import (
	"bytes"
	"encoding/gob"
)

// EncodePayload gob-encodes v as a frame payload. Every structured body
// that crosses a transport — cluster protocol messages, clock-sync stamps,
// replicated chaos operations, the application-payload envelope — goes
// through this pair, so there is one decoder to fuzz and one place where
// the encoding could ever change.
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
