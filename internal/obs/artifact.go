package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// ArtifactWriter rewrites artifact files in place. Write opens the file
// without O_TRUNC, writes the new bytes from offset 0, cuts the file to
// their length and checks Close. Truncating a non-empty file to zero and
// then closing it makes ext4 (auto_da_alloc) and XFS flush the file at
// close; overwriting skips that flush and leaves the same bytes.
//
// Artifact files are derived output, not crash-consistent: a crash
// mid-rewrite can leave old and new bytes mixed. The checkpoint journal is
// the durable record they are rebuilt from.
//
// The zero value is ready. One ArtifactWriter reuses its buffer across
// files and is not safe for concurrent use: give each goroutine its own.
type ArtifactWriter struct {
	bw bufio.Writer
	cw countingWriter
}

// countingWriter counts the bytes it passes on, so Write knows the new
// length without asking the file.
type countingWriter struct {
	f *os.File
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

// Write replaces path's contents with what encode writes, creating the
// file with perm if it does not exist. encode receives a *bufio.Writer of
// the default size, so an encoder's own bufio.NewWriter returns it as it
// is and a small file costs one write.
func (a *ArtifactWriter) Write(path string, perm os.FileMode, encode func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, perm)
	if err != nil {
		return err
	}
	a.cw = countingWriter{f: f}
	a.bw.Reset(&a.cw)
	if err = encode(&a.bw); err != nil {
		err = fmt.Errorf("encode %s: %w", path, err)
	} else {
		err = a.bw.Flush()
	}
	if err == nil {
		err = f.Truncate(a.cw.n)
	}
	a.cw.f = nil
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
