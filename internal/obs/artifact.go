package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// ArtifactWriter rewrites artifact files in place. Write first encodes the
// whole file into the writer's reused buffer; only when encode succeeds
// does it open the file (without O_TRUNC), write the new bytes from offset
// 0 in one write, cut the file to their length and check Close. An encode
// error leaves the old file untouched and creates no file where there was
// none. Truncating a non-empty file to zero and then closing it makes ext4
// (auto_da_alloc) and XFS flush the file at close; overwriting skips that
// flush and leaves the same bytes.
//
// encode receives a writer with an AvailableBuffer method, so the text
// encoders (analysis.Encode, timeline.Encode, clocksync.EncodeAlphaBeta,
// clocksync.EncodeTimestamps), whose appenders (AppendText,
// AppendAlphaBeta, AppendTimestamps) do the encoding, append straight into
// the buffer's spare room: a warm ArtifactWriter allocates no encode
// buffer.
//
// Artifact files are derived output, not crash-consistent: a crash
// mid-rewrite can leave old and new bytes mixed. The checkpoint journal is
// the durable record they are rebuilt from.
//
// The zero value is ready. One ArtifactWriter reuses its buffer across
// files and is not safe for concurrent use: give each goroutine its own.
type ArtifactWriter struct {
	buf bytes.Buffer
}

// Write replaces path's contents with what encode writes, creating the
// file with perm if it does not exist.
func (a *ArtifactWriter) Write(path string, perm os.FileMode, encode func(io.Writer) error) error {
	a.buf.Reset()
	if err := encode(&a.buf); err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, perm)
	if err != nil {
		return err
	}
	if _, err = f.Write(a.buf.Bytes()); err == nil {
		err = f.Truncate(int64(a.buf.Len()))
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteArtifact is Write on a fresh ArtifactWriter, for callers that write
// one file at a time.
func WriteArtifact(path string, perm os.FileMode, encode func(io.Writer) error) error {
	var a ArtifactWriter
	return a.Write(path, perm, encode)
}
