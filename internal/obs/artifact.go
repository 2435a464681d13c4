package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// WriteIn does the same for a name relative to an ArtifactDir, a
// directory OpenDir opened once for many files: on Linux the file is
// opened relative to the directory's descriptor (openat), so the kernel
// walks only the name, not the directory's whole path, once per file. The
// name is copied, NUL-terminated, into the writer's reused buffer, so on
// Linux neither Write nor WriteIn allocates for the open. Mkdir makes a
// directory under an ArtifactDir the same way.
//
// On unix systems the file is handled through raw descriptors (open,
// fstat, pread, write, ftruncate, close), so a Write that finds the bytes
// in place allocates nothing on Linux, and only the path's conversion on
// other unix systems; elsewhere it goes through os.File. Off Linux an
// ArtifactDir is its path, and WriteIn and Mkdir join a name to it in the
// same reused buffer, so the joined path allocates nothing either.
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
	name    []byte // the name being opened, NUL-terminated
	scratch [compareChunk]byte
}

// Write makes path's contents what encode writes, creating the file with
// perm if it does not exist and writing nothing if it already holds them.
func (a *ArtifactWriter) Write(path string, perm os.FileMode, encode func(io.Writer) error) error {
	a.name = append(append(a.name[:0], path...), 0)
	return a.write(&workDir, perm, encode)
}

// WriteIn is Write for the file name under d: name is relative to d, and
// may name a file in a subdirectory ("exp007/verdict.txt"). The writer
// does not keep name.
func (a *ArtifactWriter) WriteIn(d *ArtifactDir, name []byte, perm os.FileMode, encode func(io.Writer) error) error {
	return a.write(a.setName(d, name), perm, encode)
}

// Mkdir makes the directory name under d, with perm; its parent must
// exist. The writer does not keep name.
func (a *ArtifactWriter) Mkdir(d *ArtifactDir, name []byte, perm os.FileMode) error {
	d = a.setName(d, name)
	if err := d.mkdir(a.name, perm); err != nil {
		return &os.PathError{Op: "mkdir", Path: d.join(a.name), Err: err}
	}
	return nil
}

// write writes the file a.name under d.
func (a *ArtifactWriter) write(d *ArtifactDir, perm os.FileMode, encode func(io.Writer) error) error {
	a.buf.Reset()
	if err := encode(&a.buf); err != nil {
		return fmt.Errorf("encode %s: %w", d.join(a.name), err)
	}
	f, err := openArtifact(d, a.name, perm)
	if err != nil {
		return err
	}
	err = a.update(&f, a.buf.Bytes())
	if cerr := f.close(); err == nil {
		err = cerr
	}
	return err
}

// Path is the directory's path as OpenDir was given it.
func (d *ArtifactDir) Path() string { return d.path }

// join is the path of the NUL-terminated name cname under d, for errors
// and for opening by path; a name under the working directory is kept as
// it was given.
func (d *ArtifactDir) join(cname []byte) string {
	name := string(cname[:len(cname)-1])
	if d.path == "" {
		return name
	}
	return filepath.Join(d.path, name)
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
