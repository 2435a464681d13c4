package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestArtifactWriterRepairsEveryDifference: whatever way the file on disk
// differs from the new bytes, Write leaves exactly the new bytes. Each
// mutation below, made in a copy of artifact.go, fails it:
//   - dropping the size check (a file with one byte appended is kept);
//   - dropping the compare (a same-size file with one byte flipped is kept);
//   - comparing only the first chunk (a file larger than the scratch that
//     differs only in its last chunk is kept).
func TestArtifactWriterRepairsEveryDifference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	var w ArtifactWriter
	check := func(name string, old []byte, content string) {
		t.Helper()
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(path, 0o644, writeString(content)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("%s: the file holds %d bytes %.40q…, want %d", name, len(got), got, len(content))
		}
	}
	content := strings.Repeat("global timeline line\n", 12)
	for i := range len(content) {
		flipped := []byte(content)
		flipped[i] ^= 0x20
		check(fmt.Sprintf("byte %d flipped", i), flipped, content)
		check(fmt.Sprintf("cut at %d", i), []byte(content[:i]), content)
	}
	check("one byte appended", []byte(content+"x"), content)
	check("emptied", nil, content)
	check("identical", []byte(content), content)

	large := strings.Repeat("0123456789abcdef", 3*compareChunk/16) + "tail"
	last := []byte(large)
	last[len(last)-1] = 'X'
	check("larger than the scratch, last chunk differs", last, large)
}

// TestArtifactWriterKeepsMtimeWhenUnchanged: writing the bytes a file
// already holds does not touch it, so its mtime stays in the past; writing
// different bytes moves it.
func TestArtifactWriterKeepsMtimeWhenUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	var w ArtifactWriter
	if err := w.Write(path, 0o644, writeString("same\n")); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	mtime := func() time.Time {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}
	if err := w.Write(path, 0o644, writeString("same\n")); err != nil {
		t.Fatal(err)
	}
	if got := mtime(); !got.Equal(past) {
		t.Fatalf("writing identical bytes moved the mtime from %v to %v", past, got)
	}
	if err := w.Write(path, 0o644, writeString("diff\n")); err != nil {
		t.Fatal(err)
	}
	if got := mtime(); !got.After(past) {
		t.Fatalf("writing different bytes left the mtime at %v", got)
	}
}

// TestArtifactWriteInMatchesWrite: a name written under a directory from
// OpenDir gets what Write gives its joined path, an error names the
// joined path, a missing subdirectory is made by Mkdir, a name holding a
// NUL is refused rather than cut short, and OpenDir makes a missing
// directory with its parents.
func TestArtifactWriteInMatchesWrite(t *testing.T) {
	root := filepath.Join(t.TempDir(), "a", "b")
	var w ArtifactWriter
	d, err := w.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		t.Fatalf("OpenDir did not make %s: %v", root, err)
	}
	err = w.WriteIn(&d, []byte("exp000/a.txt"), 0o644, writeString("x\n"))
	if want := filepath.Join(root, "exp000", "a.txt"); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), want) {
		t.Fatalf("writing under a missing subdirectory = %v, want a not-exist error naming %s", err, want)
	}
	if err := w.Mkdir(&d, []byte("exp000"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, content := range []string{"first\n", strings.Repeat("longer\n", 900), "short\n", "short\n"} {
		if err := w.WriteIn(&d, []byte("exp000/a.txt"), 0o644, writeString(content)); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(filepath.Join(root, "exp000", "b.txt"), 0o644, writeString(content)); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(filepath.Join(root, "exp000", "a.txt"))
		b, _ := os.ReadFile(filepath.Join(root, "exp000", "b.txt"))
		if string(a) != content || string(b) != content {
			t.Fatalf("WriteIn left %d bytes and Write %d, want %d", len(a), len(b), len(content))
		}
	}
	if err := w.WriteIn(&d, []byte("exp000/a.txt\x00b.txt"), 0o644, writeString("x\n")); err == nil {
		t.Fatal("a name holding a NUL was written")
	}
	if _, err := os.Stat(filepath.Join(root, "exp000", "a.txt\x00b.txt")); err == nil {
		t.Fatal("a name holding a NUL made a file")
	}
	if got := d.Path(); got != root {
		t.Fatalf("Path() = %q, want %q", got, root)
	}
}
