package obs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestArtifactWriterOverwritesShorter: rewriting a file with shorter
// content leaves exactly the new bytes. Fails if Write drops its
// Truncate (the old tail survives).
func TestArtifactWriterOverwritesShorter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	var w ArtifactWriter
	long := strings.Repeat("old bytes that must go\n", 500) // larger than the buffer
	for _, content := range []string{long, "new\n", "", "newer\n"} {
		if err := w.Write(path, 0o644, writeString(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("after writing %d bytes the file holds %d: %.40q", len(content), len(got), got)
		}
	}
	if err := WriteArtifact(path, 0o644, writeString(long)); err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(path, 0o644, writeString("short\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "short\n" {
		t.Fatalf("WriteArtifact left %d bytes, want 6", len(got))
	}
}

// TestArtifactWriterReturnsErrors: an encoder's error and an open error
// reach the caller, and a failed write does not poison the next one.
func TestArtifactWriterReturnsErrors(t *testing.T) {
	dir := t.TempDir()
	var w ArtifactWriter
	boom := errors.New("boom")
	err := w.Write(filepath.Join(dir, "a.txt"), 0o666, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("encoder error = %v, want boom", err)
	}
	if err := w.Write(filepath.Join(dir, "missing", "a.txt"), 0o666, writeString("x")); err == nil {
		t.Fatal("writing under a missing directory succeeded")
	}
	path := filepath.Join(dir, "b.txt")
	if err := w.Write(path, 0o666, writeString("ok\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "ok\n" {
		t.Fatalf("write after a failed one = %q", got)
	}
}

// TestArtifactEncodeErrorKeepsOldFile: an encoder that writes part of a
// file and then fails leaves the old file as it was, not its new head
// over its old tail, and creates no file where there was none.
func TestArtifactEncodeErrorKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	old := strings.Repeat("o", 10_000)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	failHalfway := func(w io.Writer) error {
		io.WriteString(w, strings.Repeat("n", 5_000))
		return boom
	}
	var w ArtifactWriter
	if err := w.Write(path, 0o644, failHalfway); !errors.Is(err, boom) {
		t.Fatalf("encoder error = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != old {
		t.Fatalf("after a failed encode the file holds %d bytes, %.10q…; want the old %d", len(got), got, len(old))
	}
	fresh := filepath.Join(dir, "fresh.txt")
	if err := WriteArtifact(fresh, 0o644, failHalfway); !errors.Is(err, boom) {
		t.Fatalf("encoder error = %v, want boom", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("a failed encode left a file behind: %v", err)
	}
}
