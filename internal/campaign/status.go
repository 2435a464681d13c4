package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Read-only checkpoint-journal inspection: summarize what a campaign's
// journal holds — per study/point, how many experiments are complete and
// how many of those were accepted — without running anything and without
// the load-time tail truncation (a status query must never modify the
// journal a live campaign may be appending to).

// PointProgress summarizes one study's (or matrix point's) journaled
// records.
type PointProgress struct {
	// Point is the study or matrix point name the records are keyed by.
	Point string
	// Complete counts records whose whole line survived.
	Complete int
	// Accepted counts complete records that passed the analysis phase.
	Accepted int
	// Fingerprint is the study-level fingerprint the point's records were
	// written under (they all share one; resume verifies it per record).
	Fingerprint string
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
	// Torn reports a garbled tail — a complete line that does not parse or
	// has an unknown shape. Everything before it is still trusted, but the
	// file itself is damaged (a live append never looks like this).
	Torn bool
}

// Complete sums complete records across points.
func (s *JournalSummary) Complete() int {
	n := 0
	for _, p := range s.Points {
		n += p.Complete
	}
	return n
}

// Accepted sums accepted records across points.
func (s *JournalSummary) Accepted() int {
	n := 0
	for _, p := range s.Points {
		n += p.Accepted
	}
	return n
}

// JournalPath returns the journal location under an artifact directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// RecordSummary is the verdict view of one completed journal record: the
// fields a status line or a campaign report prints, decoded in place of
// the journaled ExperimentRecord (whose fields of the same names they are)
// while its timelines, bounds and stamps are skipped unparsed.
type RecordSummary struct {
	Point              string `json:"-"`
	Index              int
	Completed          bool
	Accepted           bool
	AnalysisError      string
	ClockStepSuspected bool
}

// walkJournal opens the journal under dir read-only and hands fn every
// complete record, verdict fields decoded, in journal order.
func walkJournal(dir string, fn func(*journalRecord[RecordSummary])) (journalScan, error) {
	path := JournalPath(dir)
	f, err := os.Open(path)
	if err != nil {
		return journalScan{}, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	defer f.Close()
	return readJournal(f, path, fn)
}

// SummarizeJournal reads the checkpoint journal under dir and summarizes
// it. Only whole record lines are counted, mirroring what a resume would
// trust. The tail is classified, never truncated: a live campaign
// mid-append shows up as Appending; Torn is reserved for a genuinely
// garbled tail.
func SummarizeJournal(dir string) (*JournalSummary, error) {
	points := make(map[string]*PointProgress)
	scan, err := walkJournal(dir, func(rec *journalRecord[RecordSummary]) {
		p := points[rec.Point]
		if p == nil {
			p = &PointProgress{Point: rec.Point, Fingerprint: rec.Fingerprint}
			points[rec.Point] = p
		}
		p.Complete++
		if rec.Experiment.Accepted {
			p.Accepted++
		}
	})
	if err != nil {
		return nil, err
	}
	sum := &JournalSummary{
		Path:        JournalPath(dir),
		Campaign:    scan.header.Campaign,
		Fingerprint: scan.header.Fingerprint,
		Appending:   scan.tail == tailAppending,
		Torn:        scan.tail == tailGarbled,
	}
	for _, p := range points {
		sum.Points = append(sum.Points, *p)
	}
	sort.Slice(sum.Points, func(i, j int) bool { return sum.Points[i].Point < sum.Points[j].Point })
	return sum, nil
}

// WalkJournal reads the checkpoint journal under dir and calls fn once
// per completed record (a whole record line), in journal order. Like
// SummarizeJournal it is read-only and never truncates a live tail. It
// returns the journal header's campaign name and fingerprint.
func WalkJournal(dir string, fn func(RecordSummary)) (campaignName, fingerprint string, err error) {
	scan, err := walkJournal(dir, func(rec *journalRecord[RecordSummary]) {
		rec.Experiment.Point = rec.Point
		fn(rec.Experiment)
	})
	return scan.header.Campaign, scan.header.Fingerprint, err
}

// ConfigFingerprint computes the campaign-level configuration fingerprint
// journal headers carry — what a status query compares a summary against
// to tell "this journal belongs to this configuration".
func ConfigFingerprint(c *Campaign) string { return campaignFingerprint(c) }

// StudyConfigFingerprint computes the study-level fingerprint record
// lookups verify on resume — what a status query compares a point's
// journaled Fingerprint against.
func StudyConfigFingerprint(c *Campaign, st *Study, point string) string {
	return studyFingerprint(c, st, point)
}
