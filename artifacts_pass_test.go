package loki

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/obs"
)

// goldenRecord is the golden election journal's record.
func goldenRecord(t *testing.T) ExperimentRecord {
	t.Helper()
	b, err := os.ReadFile("testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Record struct{ Experiment *ExperimentRecord }
	}
	if err := json.Unmarshal([]byte(strings.SplitAfter(string(b), "\n")[1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Record.Experiment == nil || line.Record.Experiment.Global == nil {
		t.Fatal("the golden record has no global timeline")
	}
	return *line.Record.Experiment
}

// artifactStudies is a tree's worth of studies: three matrix points of a
// few records, a study longer than one job, and a point whose records
// have no global timeline (it must get no directory). Verdicts vary, so
// verdict.txt does too.
func artifactStudies(t *testing.T) map[string]*StudyOutcome {
	golden := goldenRecord(t)
	study := func(n int, global bool) *StudyOutcome {
		sr := &StudyOutcome{}
		for i := range n {
			rec := golden
			rec.Index, rec.Accepted = i, i%3 != 0
			if !global {
				rec.Global = nil
			}
			sr.Records = append(sr.Records, &rec)
		}
		sr.Records = append(sr.Records, nil) // a record a resume did not serve
		return sr
	}
	return map[string]*StudyOutcome{
		"netsplit/wan/seed1": study(4, true),
		"netsplit/wan/seed2": study(4, true),
		"netsplit/lan/seed1": study(3, true),
		"long":               study(2*artifactJobLen+5, true),
		"aborted/wan/seed1":  study(4, false),
	}
}

// handlePass writes studies under root with writeArtifactJobs.
func handlePass(t *testing.T, root string, studies map[string]*StudyOutcome) {
	t.Helper()
	var jobs []artifactJob
	for name, sr := range studies {
		jobs = appendArtifactJobs(jobs, underDir(root, name), sr)
	}
	if err := writeArtifactJobs(jobs); err != nil {
		t.Fatal(err)
	}
}

// pathPass writes studies under root one record at a time by full paths,
// as the artifact pass did before it opened directories: each file opened
// by its joined path, a missing experiment directory made with MkdirAll.
func pathPass(t *testing.T, root string, studies map[string]*StudyOutcome) {
	t.Helper()
	for name, sr := range studies {
		for _, rec := range sr.Records {
			if rec == nil || rec.Global == nil {
				continue
			}
			expDir := filepath.Join(underDir(root, name), fmt.Sprintf("exp%03d", rec.Index))
			global := filepath.Join(expDir, "global.timeline")
			encodeGlobal := func(w io.Writer) error { return analysis.Encode(w, rec.Global) }
			err := obs.WriteArtifact(global, 0o666, encodeGlobal)
			if errors.Is(err, fs.ErrNotExist) {
				if err = os.MkdirAll(expDir, 0o755); err == nil {
					err = obs.WriteArtifact(global, 0o666, encodeGlobal)
				}
			}
			if err == nil {
				err = obs.WriteArtifact(filepath.Join(expDir, "alphabeta.txt"), 0o666, func(w io.Writer) error {
					return clocksync.EncodeAlphaBeta(w, rec.Global.Reference, rec.Bounds)
				})
			}
			if err == nil {
				err = obs.WriteArtifact(filepath.Join(expDir, "verdict.txt"), 0o644, func(w io.Writer) error {
					_, err := io.WriteString(w, rec.Verdict().String()+"\n")
					return err
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// treeEntry is one file or directory of a tree: its mode, its bytes, and
// its modification time.
type treeEntry struct {
	mode  fs.FileMode
	bytes string
	mtime time.Time
}

// walkTree reads every file and directory under root.
func walkTree(t *testing.T, root string) map[string]treeEntry {
	t.Helper()
	out := map[string]treeEntry{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		e := treeEntry{mode: fi.Mode(), mtime: fi.ModTime()}
		if !d.IsDir() {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			e.bytes = string(b)
		}
		rel, err := filepath.Rel(root, p)
		out[rel] = e
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTree reports every entry where got differs from want in kind, mode
// or bytes (not mtime).
func sameTree(t *testing.T, when string, got, want map[string]treeEntry) {
	t.Helper()
	for rel, w := range want {
		g, ok := got[rel]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", when, rel)
		case g.mode != w.mode:
			t.Errorf("%s: %s has mode %v, want %v", when, rel, g.mode, w.mode)
		case g.bytes != w.bytes:
			t.Errorf("%s: %s holds %d bytes, want %d", when, rel, len(g.bytes), len(w.bytes))
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: %s should not be there", when, rel)
		}
	}
}

// TestArtifactPassMatchesPathPass: the artifact pass, which opens each
// study's directory once and its files relative to it, writes the tree the
// path-by-path pass writes, file for file and directory for directory,
// modes included: into an empty directory, and over the path pass's own
// tree, where it writes nothing, so no file's or directory's mtime moves.
func TestArtifactPassMatchesPathPass(t *testing.T) {
	studies := artifactStudies(t)
	byPath, byHandle := t.TempDir(), t.TempDir()
	pathPass(t, byPath, studies)
	handlePass(t, byHandle, studies)
	want := walkTree(t, byPath)
	if n := len(want); n < 3*(4+4+3+2*artifactJobLen+5) {
		t.Fatalf("the path pass wrote %d entries, want at least 3 per record", n)
	}
	if _, ok := want["aborted"]; ok {
		t.Fatal("the path pass made a directory for a point without artifacts")
	}
	sameTree(t, "fresh", walkTree(t, byHandle), want)

	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	for rel := range want {
		if err := os.Chtimes(filepath.Join(byPath, rel), past, past); err != nil {
			t.Fatal(err)
		}
	}
	handlePass(t, byPath, studies)
	got := walkTree(t, byPath)
	sameTree(t, "over an intact tree", got, want)
	for rel, e := range got {
		if !e.mtime.Equal(past) {
			t.Errorf("over an intact tree: %s's mtime moved to %v", rel, e.mtime)
		}
	}
}

// TestArtifactPassDirForms: whatever form the artifact directory is given
// in (empty, relative, with "." or ".." segments, doubled or trailing
// separators), the pass writes each expNNN at filepath.Join(dir,
// "expNNN"), where the run's other files go, and nothing else: a ".."
// after a symbolic link steps back over the link, not out of its target,
// and one after a missing directory leaves no such directory behind.
func TestArtifactPassDirForms(t *testing.T) {
	golden := goldenRecord(t)
	sr := &StudyOutcome{}
	for _, i := range []int{0, 7, 1000} {
		rec := golden
		rec.Index = i
		sr.Records = append(sr.Records, &rec)
	}
	forms := []string{"", ".", "out", "out/", "./out", "a/./b/", "../x", "ROOT//a/../b", "link/../via-link", "missing/../via-missing"}
	for _, form := range forms {
		t.Run(form, func(t *testing.T) {
			root := t.TempDir()
			cwd, target := filepath.Join(root, "cwd"), filepath.Join(root, "elsewhere", "deep")
			if err := os.MkdirAll(target, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(cwd, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink(target, filepath.Join(cwd, "link")); err != nil {
				t.Skip("no symbolic links here:", err)
			}
			t.Chdir(cwd)
			dir := strings.Replace(form, "ROOT", root, 1)
			if err := writeArtifactJobs(appendArtifactJobs(nil, dir, sr)); err != nil {
				t.Fatal(err)
			}
			// want is every entry the tree should hold, relative to root:
			// the fixture, each record's directory and files where
			// filepath.Join puts them, and the directories above those.
			want := map[string]bool{}
			for _, p := range []string{filepath.Join(cwd, "link"), target} {
				for rel, _ := filepath.Rel(root, p); rel != "."; rel = filepath.Dir(rel) {
					want[rel] = true
				}
			}
			for _, rec := range sr.Records {
				exp := filepath.Join(dir, fmt.Sprintf("exp%03d", rec.Index))
				for _, base := range []string{"global.timeline", "alphabeta.txt", "verdict.txt"} {
					abs, err := filepath.Abs(filepath.Join(exp, base))
					if err != nil {
						t.Fatal(err)
					}
					for rel, _ := filepath.Rel(root, abs); rel != "."; rel = filepath.Dir(rel) {
						want[rel] = true
					}
				}
			}
			got := map[string]bool{}
			err := filepath.WalkDir(root, func(p string, _ fs.DirEntry, err error) error {
				if err != nil || p == root {
					return err
				}
				rel, err := filepath.Rel(root, p)
				got[rel] = true
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for rel := range want {
				if !got[rel] {
					t.Errorf("dir %q: %s missing", dir, rel)
				}
			}
			for rel := range got {
				if !want[rel] {
					t.Errorf("dir %q: %s should not be there", dir, rel)
				}
			}
		})
	}
}
