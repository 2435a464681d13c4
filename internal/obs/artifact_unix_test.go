//go:build unix

package obs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestArtifactWriterNonRegularTargets: a target that is not a regular file
// is written once, never read and never truncated. Writing to a FIFO with
// an open reader returns nil and the reader gets exactly the bytes;
// writing to /dev/null returns nil. Both failed with "truncate …: invalid
// argument" when every target was cut to length, so
// `alphabeta -out /dev/stdout | cat` exited 1. Writing to a FIFO no one
// reads fails with EPIPE instead of returning nil with the bytes lost
// (which it would if the write went through Write's read-write open) or
// blocking for a reader.
func TestArtifactWriterNonRegularTargets(t *testing.T) {
	content := strings.Repeat("alphabeta line\n", 40)
	write := func(t *testing.T, path string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- WriteArtifact(path, 0o644, writeString(content)) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("writing to %s: %v", path, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("writing to %s did not return within 5 s", path)
		}
	}

	t.Run("fifo", func(t *testing.T) {
		fifo := filepath.Join(t.TempDir(), "out.fifo")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		// Opened without blocking and before the write, so the bytes wait
		// in the pipe; once Write closes its end the reader sees them and
		// then end of file.
		r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		write(t, fifo)
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("the reader got %d bytes %.40q…, want %d", len(got), got, len(content))
		}
	})
	t.Run("fifo-without-reader", func(t *testing.T) {
		fifo := filepath.Join(t.TempDir(), "out.fifo")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- WriteArtifact(fifo, 0o644, writeString(content)) }()
		select {
		case err := <-done:
			if !errors.Is(err, syscall.EPIPE) {
				t.Fatalf("writing to a FIFO no one reads = %v, want EPIPE", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writing to a FIFO no one reads did not return within 5 s")
		}
	})
	t.Run("dev-null", func(t *testing.T) {
		if _, err := os.Stat(os.DevNull); err != nil {
			t.Skip(err)
		}
		write(t, os.DevNull)
	})
}
