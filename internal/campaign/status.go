package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Read-only checkpoint-journal inspection: summarize what a campaign's
// journal holds — per study/point, a tally of its experiments' verdicts —
// without running anything and without the load-time tail truncation (a
// status query must never modify the journal a live campaign may be
// appending to).

// PointProgress summarizes one study's (or matrix point's) journaled
// records.
type PointProgress struct {
	// Point is the study or matrix point name the records are keyed by.
	Point string
	// Fingerprint is the study-level fingerprint the point's records were
	// written under (they all share one; resume verifies it per record).
	Fingerprint string
	// Tally counts the verdicts of the experiments with a verified record
	// line; a key journaled more than once counts once, by its last copy.
	Tally
}

// JournalSummary is the read-only summary of one checkpoint journal.
type JournalSummary struct {
	// Path is the journal file location.
	Path string
	// Campaign and Fingerprint echo the journal header: which campaign
	// configuration wrote these records.
	Campaign    string
	Fingerprint string
	// Points lists per-point progress, sorted by point name.
	Points []PointProgress
	// Appending reports trailing bytes without a newline: a writer is
	// mid-append right now, or crashed there. Either way the bytes are
	// ignored, not an error.
	Appending bool
	// Torn reports a garbled tail — a complete line whose sum does not
	// verify, or a second header. Everything before it is still trusted,
	// but the file itself is damaged (a live append never looks like this).
	Torn bool
}

// Totals sums the points' tallies.
func (s *JournalSummary) Totals() Tally {
	var t Tally
	for _, p := range s.Points {
		t.plus(p.Tally)
	}
	return t
}

// JournalPath returns the journal location under an artifact directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// RecordSummary is the verdict view of one completed journal record: what
// a status line or a campaign report counts, decoded from the journaled
// ExperimentRecord's verdict fields while its timelines, bounds and stamps
// are skipped unparsed.
type RecordSummary struct {
	Point              string
	Index              int
	Verdict            Verdict
	ClockStepSuspected bool
}

// Summarize is the verdict view of a record journaled under point.
func Summarize(point string, rec *ExperimentRecord) RecordSummary {
	return RecordSummary{Point: point, Index: rec.Index, Verdict: rec.Verdict(), ClockStepSuspected: rec.ClockStepSuspected}
}

// points tallies verdicts per point; a point's fingerprint is its first
// record's.
type points map[string]*PointProgress

func (ps points) add(r RecordSummary, fingerprint string) {
	p := ps[r.Point]
	if p == nil {
		p = &PointProgress{Point: r.Point, Fingerprint: fingerprint}
		ps[r.Point] = p
	}
	p.add(r)
}

// sorted lists the points by name.
func (ps points) sorted() []PointProgress {
	out := make([]PointProgress, 0, len(ps))
	for _, p := range ps {
		out = append(out, *p)
	}
	slices.SortFunc(out, func(a, b PointProgress) int { return strings.Compare(a.Point, b.Point) })
	return out
}

// walkJournal opens the journal under dir read-only and hands fn every
// journaled key once, verdict fields decoded: at the place of its first
// record line, with the fields of its last — a later copy of a key
// supersedes an earlier one, as it does for a resume.
func walkJournal(dir string, fn func(*journalRecord[RecordSummary])) (journalScan, error) {
	path := JournalPath(dir)
	f, err := os.Open(path)
	if err != nil {
		return journalScan{}, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	defer f.Close()
	var (
		recs []journalRecord[RecordSummary]
		at   = make(map[journalKey]int)
	)
	scan, err := readJournal(f, path, func(rec *journalRecord[RecordSummary]) {
		k := journalKey{rec.Point, rec.Index}
		if i, ok := at[k]; ok {
			recs[i] = *rec
			return
		}
		at[k] = len(recs)
		recs = append(recs, *rec)
	})
	if err != nil {
		return scan, err
	}
	for i := range recs {
		fn(&recs[i])
	}
	return scan, nil
}

// SummarizeJournal reads the checkpoint journal under dir and summarizes
// it. Only whole record lines are counted, each journaled experiment once,
// mirroring what a resume would trust. The tail is classified, never
// truncated: a live campaign mid-append shows up as Appending; Torn is
// reserved for a genuinely garbled tail. It is the one reader behind both
// a status query and a report.
func SummarizeJournal(dir string) (*JournalSummary, error) {
	ps := points{}
	scan, err := walkJournal(dir, func(rec *journalRecord[RecordSummary]) {
		rec.Experiment.Point = rec.Point
		ps.add(rec.Experiment, rec.Fingerprint)
	})
	if err != nil {
		return nil, err
	}
	return &JournalSummary{
		Path:        JournalPath(dir),
		Campaign:    scan.header.Campaign,
		Fingerprint: scan.header.Fingerprint,
		Points:      ps.sorted(),
		Appending:   scan.tail == tailAppending,
		Torn:        scan.tail == tailGarbled,
	}, nil
}

// SummarizeRecords is the summary SummarizeJournal would read from a
// journal whose header names campaign name and fingerprint and whose
// records' verdicts each hands to add: the same tally over records in
// hand. Its points carry no fingerprint.
func SummarizeRecords(name, fingerprint string, each func(add func(RecordSummary))) *JournalSummary {
	ps := points{}
	each(func(r RecordSummary) { ps.add(r, "") })
	return &JournalSummary{Campaign: name, Fingerprint: fingerprint, Points: ps.sorted()}
}

// ConfigFingerprint computes the campaign-level configuration fingerprint
// journal headers carry — what a status query compares a summary against
// to tell "this journal belongs to this configuration".
func ConfigFingerprint(c *Campaign) string { return campaignFingerprint(c) }

// Namespace is one record namespace a campaign configures — a study, or
// a matrix point — with the experiment count and the study fingerprint a
// resume expects of its records.
type Namespace struct {
	Name        string
	Experiments int
	Fingerprint string
}

// Namespaces lists the record namespaces of every study of c or, when m is
// not nil, of every point of m, in the order they run. A status query
// compares the journal's points against them.
func Namespaces(c *Campaign, m *Matrix) ([]Namespace, error) {
	if m == nil {
		fp := campaignFingerprint(c)
		out := make([]Namespace, len(c.Studies))
		for i, st := range c.Studies {
			out[i] = Namespace{st.Name, st.Experiments, studyFingerprint(fp, st, st.Name)}
		}
		return out, nil
	}
	x, err := validate(c, m)
	if err != nil {
		return nil, err
	}
	profileFP := profileFingerprints(c, m, x.pts)
	out := make([]Namespace, len(x.pts))
	for i := range x.pts {
		p, name := &x.pts[i], x.names[i]
		st := pointStudy(x.overlays[p.scenario], p, name)
		out[i] = Namespace{name, st.Experiments, studyFingerprint(profileFP[p.profile], &st, name)}
	}
	return out, nil
}
