package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// compareChunk is the size of the scratch a Write reads an existing file
// through, so verifying a large file does not allocate a second copy of it.
const compareChunk = 4096

// ArtifactWriter writes artifact files, and leaves a file alone when it
// already holds the bytes. Write first encodes the whole file into the
// writer's reused buffer; only when encode succeeds does it open the file
// (read-write, without O_TRUNC). A regular file whose size equals the
// encoding and whose bytes all match is closed untouched: no write, and
// its mtime does not move. Any other regular file gets the new bytes from
// offset 0 and is cut to their length when it was longer. A target that
// is not a regular file (a pipe, a terminal, /dev/null) is written once,
// through a write-only descriptor, and never read or truncated: a read
// could block, a truncate fails, and a FIFO no one reads then fails the
// write with EPIPE instead of taking the bytes. An encode error leaves the
// old file untouched and creates no file where there was none; Write
// never creates directories. Truncating a non-empty file to zero and then
// closing it makes ext4 (auto_da_alloc) and XFS flush the file at close;
// overwriting skips that flush and leaves the same bytes.
//
// On unix systems the file is handled through raw descriptors (open,
// fstat, pread, write, ftruncate, close), so a Write that finds the bytes
// in place allocates nothing beyond the path's conversion; elsewhere it
// goes through os.File.
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
// The zero value is ready. One ArtifactWriter reuses its buffers across
// files and is not safe for concurrent use: give each goroutine its own.
type ArtifactWriter struct {
	buf     bytes.Buffer
	scratch [compareChunk]byte
}

// Write makes path's contents what encode writes, creating the file with
// perm if it does not exist and writing nothing if it already holds them.
func (a *ArtifactWriter) Write(path string, perm os.FileMode, encode func(io.Writer) error) error {
	a.buf.Reset()
	if err := encode(&a.buf); err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	f, err := openArtifact(path, perm)
	if err != nil {
		return err
	}
	err = a.update(&f, a.buf.Bytes())
	if cerr := f.close(); err == nil {
		err = cerr
	}
	return err
}

// update leaves f alone if it is a regular file that holds want, and
// otherwise writes want from offset 0, cutting a longer regular file.
func (a *ArtifactWriter) update(f *artifactFile, want []byte) error {
	size, regular, err := f.stat()
	if err != nil {
		return err
	}
	if !regular {
		// Opened read-write, a FIFO counts Write among its readers, and
		// bytes written to a FIFO no one else reads would vanish at close.
		// Write-only, they fail with EPIPE instead.
		if err := f.writeOnly(); err != nil {
			return err
		}
	} else if size == int64(len(want)) {
		same, err := a.holds(*f, want)
		if same || err != nil {
			return err
		}
	}
	for p := want; len(p) > 0; {
		n, err := f.write(p)
		if err != nil {
			return err
		}
		if n == 0 {
			return f.pathError("write", io.ErrShortWrite)
		}
		p = p[n:]
	}
	if regular && size > int64(len(want)) {
		return f.truncate(int64(len(want)))
	}
	return nil
}

// holds reports whether f's first len(want) bytes are want, reading them
// through the scratch one chunk at a time.
func (a *ArtifactWriter) holds(f artifactFile, want []byte) (bool, error) {
	for off := 0; off < len(want); {
		n, err := f.readAt(a.scratch[:min(len(a.scratch), len(want)-off)], int64(off))
		if err != nil || n == 0 || !bytes.Equal(a.scratch[:n], want[off:off+n]) {
			return false, err
		}
		off += n
	}
	return true, nil
}

// WriteArtifact is Write on a fresh ArtifactWriter, for callers that write
// one file at a time.
func WriteArtifact(path string, perm os.FileMode, encode func(io.Writer) error) error {
	var a ArtifactWriter
	return a.Write(path, perm, encode)
}
