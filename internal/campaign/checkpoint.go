package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Campaign checkpointing (ROADMAP "campaign checkpointing/resume"): the
// paper's studies run tens of thousands of experiments (§2.3/§2.6), so an
// interrupted multi-hour matrix must not rerun from point zero. As each
// experiment's analysis completes, its ExperimentRecord — marshalled as it
// stands, the global timeline in its §5.7 text and (for a one-experiment
// run) the local timelines in their §3.5.6 text — is appended to a JSONL
// journal under the artifact directory, keyed by {study-or-point name,
// experiment index}. A record line is its own commit record: it is trusted
// on resume when it is whole (newline-terminated) and parses; a torn or
// garbled tail is truncated, not trusted.
//
// The journal is group-committed behind the pipeline. An append marshals
// its record line in the calling analysis worker, queues it and returns; one
// committer goroutine per open journal writes every line queued since its
// last round in one write and fsyncs once, so rounds batch whatever queued
// during the previous fsync. Durability is confirmed by the committer: a
// journaled study's progress events are queued beside its lines and emitted
// after the round that holds them, in queue order, so an experiment event
// still means "this record is fsync'd" and a study-done event follows the
// study's last experiment event. The engines return only after Close has
// drained the queue. A crash loses at most the queued lines (bounded by
// maxQueuedBytes), whose experiments a resume re-runs.
//
// A record line is read by one of two decoders. A line exactly as the
// writer writes it (json.Marshal's key order, spelling and escapes, no
// whitespace) is read in place by the strict decoder (lineDecoder): whole
// for a resume, and as a RecordSummary for Status and the report. Every
// other line goes through encoding/json as it always has: the header, a
// line written by another encoder or edited by hand, a reordered, repeated,
// case-folded or escaped key, a null Experiment, a value of another type.
// A resume's fallback is decodeResumeLine and a summary's json.Unmarshal.
// The strict decoder refuses whatever it cannot read exactly as
// encoding/json would, so both paths give the same records. The fallback
// stays because nothing yet tells a line the writer wrote from one that
// only parses: a journal edited, or corrupted into other valid JSON, must
// read as it always has. Once each line carries a checksum of the bytes the
// writer wrote, a line that verifies is the writer's and the fallback can
// go.
//
// On resume the journal is reloaded, the campaign-level fingerprint in the
// header is verified, and each skipped record's study-level fingerprint
// (campaign hash + point name + seed + fault specs) is checked before the
// engines skip it — resuming against a changed configuration is an error,
// never a silent mix of two campaigns' records.

// Checkpoint configures campaign journaling and resume. It applies to
// Run, RunMatrix, RunSingle, and the clustered Member engines.
type Checkpoint struct {
	// Dir is the artifact directory; the journal lives at
	// Dir/checkpoint.jsonl. Required.
	Dir string
	// Resume loads an existing journal and skips every complete record,
	// re-executing only the missing points/experiments. Without Resume an
	// existing journal is truncated and the campaign journals from
	// scratch.
	Resume bool
}

const (
	journalName    = "checkpoint.jsonl"
	journalVersion = 2
)

// journalLine is one line of the JSONL journal: exactly one of the two
// fields is set. Header first, then one record per line. E is the shape
// the line's user gives the journaled experiment (see journalRecord).
type journalLine[E any] struct {
	Journal *journalHeader    `json:"journal,omitempty"`
	Record  *journalRecord[E] `json:"record,omitempty"`
}

type journalHeader struct {
	Version     int
	Campaign    string
	Fingerprint string
}

// journalKey addresses one experiment: the study name (or matrix point
// name) plus the experiment index within it.
type journalKey struct {
	Point string
	Index int
}

// journalRecord is one journaled experiment: an ExperimentRecord under its
// key and study fingerprint. On disk there is one format; in memory E says
// how much of the experiment its user wants decoded. The writer marshals an
// *ExperimentRecord; a resume decodes the whole record as it loads the
// line (journaledExperiment); the read-only readers decode a RecordSummary
// — the verdict fields they print — and the timelines are validated and
// skipped, not parsed.
type journalRecord[E any] struct {
	Point       string
	Index       int
	Fingerprint string
	Experiment  E
}

// journal is an open checkpoint journal: the append file, its committer,
// and the loaded map of complete records. Safe for concurrent use by the
// worker pools.
type journal struct {
	f *os.File
	// cm, when non-nil, receives append and fsync latency observations —
	// the durability cost every journaled experiment pays.
	cm *obs.CampaignMetrics

	mu           sync.Mutex // guards entries
	entries      map[journalKey]journalRecord[journaledExperiment]
	headerLoaded bool

	// Group commit, all guarded by cmu: appenders queue record lines and
	// their entries and return, waiting on room only while more than
	// maxQueuedBytes are queued; the committer waits on queued.
	cmu     sync.Mutex
	queued  sync.Cond // an entry was queued, or Close was called
	room    sync.Cond // the committer took the queue, or failed
	lines   []byte    // record lines queued for the next round
	queue   []pending // one per queued line, plus line-less events, in queue order
	err     error     // the first write or fsync error; every later append and Close return it
	closing bool
	exited  chan struct{} // closed when the committer returns
}

// maxQueuedBytes bounds the record lines queued behind the committer
// (about 650 chaos-matrix records): past it an append waits for the
// committer to take the queue. It is also the most a crash can lose.
const maxQueuedBytes = 1 << 20

// pending is one entry of the commit queue: the progress event the
// committer emits once the round holding it is durable. An experiment event
// stands for the record line queued with it; a study-start or study-done
// event has no line.
type pending struct {
	p        *progress
	kind     string
	index    int
	accepted bool
}

// openCampaignJournal opens (or resumes) the campaign's journal; a nil
// Checkpoint yields a nil journal, on which every method is a no-op.
func openCampaignJournal(c *Campaign) (*journal, error) {
	cp := c.Checkpoint
	if cp == nil {
		return nil, nil
	}
	if cp.Dir == "" {
		return nil, fmt.Errorf("campaign: checkpoint: Dir is required")
	}
	if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	path := filepath.Join(cp.Dir, journalName)
	fp := campaignFingerprint(c)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	j := &journal{f: f, cm: c.Obs.CampaignMetrics()}
	if cp.Resume {
		if err := j.load(fp); err != nil {
			f.Close()
			return nil, err
		}
		// Resuming an absent or empty journal is a fresh start, not an
		// error: the first interrupted run needs -resume semantics too.
	}
	if !j.headerLoaded {
		if err := j.writeHeader(c.Name, fp); err != nil {
			f.Close()
			return nil, err
		}
	}
	j.start()
	return j, nil
}

// start starts the journal's committer.
func (j *journal) start() {
	j.queued.L, j.room.L = &j.cmu, &j.cmu
	j.exited = make(chan struct{})
	go j.commit()
}

// writeHeader starts the journal afresh: the file is emptied and the
// header line written and fsync'd.
func (j *journal) writeHeader(campaign, fingerprint string) error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	b, err := json.Marshal(journalLine[struct{}]{Journal: &journalHeader{
		Version: journalVersion, Campaign: campaign, Fingerprint: fingerprint,
	}})
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return j.write(append(b, '\n'))
}

// journalTail classifies how a journal scan ended.
type journalTail int

const (
	// tailClean: the file ends at a complete, well-formed line.
	tailClean journalTail = iota
	// tailAppending: trailing bytes with no newline — a writer is
	// mid-append (live campaign) or crashed there; the bytes are untrusted
	// either way.
	tailAppending
	// tailGarbled: a complete line that does not parse, or has an unknown
	// shape (duplicate header, empty object). Nothing at or past it is
	// trusted.
	tailGarbled
)

// journalScan is what one pass over a journal establishes besides its
// complete records.
type journalScan struct {
	// header is the journal's first line; the zero value for an empty file.
	header journalHeader
	// offset is the byte offset of the end of the last trusted line.
	offset int64
	tail   journalTail
}

// journalBatchBytes bounds one batch of journal lines readJournal decodes
// together (about 160 chaos-matrix records): a read holds one batch, not
// the file. Batches start at a quarter of it and double, so a short journal
// is read in one small buffer; a line longer than a batch is read whole, in
// a larger one.
const journalBatchBytes = 256 << 10

// readJournal is the one reader of the journal format. It validates the
// header line (a journal at all, of this build's version), walks every
// complete line up to the first torn or garbled tail, and hands each record
// to onRecord in journal order, on the caller's goroutine. What a caller
// does with the scan is its own discipline: the resume loader checks the
// fingerprint and truncates at scan.offset, the read-only readers report
// the tail state and never touch the file.
//
// The file is read in batches of whole lines, at most journalBatchBytes
// each (or one longer line). Each batch's lines are decoded over GOMAXPROCS
// goroutines (decodeBatch) before the batch is walked in order; a line past
// the first untrusted one is decoded in vain, never handed on.
func readJournal[E any](r io.Reader, path string, onRecord func(*journalRecord[E])) (journalScan, error) {
	var (
		scan  journalScan
		buf   = make([]byte, journalBatchBytes/4)
		n     int // bytes of buf read and not yet walked
		eof   bool
		lines [][]byte
	)
	for {
		if !eof {
			m, err := io.ReadFull(r, buf[n:])
			n += m
			switch err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				eof = true
			default:
				return scan, fmt.Errorf("campaign: checkpoint: reading %s: %w", path, err)
			}
		}
		whole := bytes.LastIndexByte(buf[:n], '\n') + 1
		if whole == 0 {
			if eof {
				if n > 0 {
					scan.tail = tailAppending
				}
				return scan, nil
			}
			// One line fills the buffer: read it whole in a larger one.
			buf = append(buf, make([]byte, len(buf))...)
			continue
		}
		lines = lines[:0]
		for rest := buf[:whole]; len(rest) > 0; {
			i := bytes.IndexByte(rest, '\n') + 1
			lines, rest = append(lines, rest[:i]), rest[i:]
		}
		decoded, ok := decodeBatch[E](lines)
		for i, raw := range lines {
			line := &decoded[i]
			switch {
			case !ok[i]:
				scan.tail = tailGarbled
				return scan, nil
			case scan.offset == 0: // the first line
				if line.Journal == nil {
					// First line is valid JSON but not a header: a foreign
					// file. Refuse to read records out of it or mix them in.
					return scan, fmt.Errorf("campaign: checkpoint: %s is not a checkpoint journal", path)
				}
				if line.Journal.Version != journalVersion {
					return scan, fmt.Errorf("campaign: checkpoint: %s has journal version %d, this build reads and writes %d",
						path, line.Journal.Version, journalVersion)
				}
				scan.header = *line.Journal
			case line.Record != nil:
				onRecord(line.Record)
			default:
				scan.tail = tailGarbled
				return scan, nil
			}
			scan.offset += int64(len(raw))
		}
		n = copy(buf, buf[whole:n])
		if !eof && len(buf) < journalBatchBytes {
			buf = append(buf, make([]byte, len(buf))...)
		}
	}
}

// decodeBatch decodes lines, and reports which of them parse, over up to
// GOMAXPROCS goroutines — the caller's among them — that claim lines one
// at a time, each with its own strict decoder and so its own scratch.
func decodeBatch[E any](lines [][]byte) (out []journalLine[E], ok []bool) {
	out, ok = make([]journalLine[E], len(lines)), make([]bool, len(lines))
	var next atomic.Int64
	work := func() {
		var d lineDecoder
		for {
			i := int(next.Add(1)) - 1
			if i >= len(lines) {
				return
			}
			ok[i] = decodeLine(&d, lines[i], &out[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(lines)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out, ok
}

// decodeLine decodes one journal line into line and reports whether it
// parses. A record line as the writer writes it is read by d, the strict
// decoder, whole for a resume and as a RecordSummary for the read-only
// readers; a line d refuses takes the encoding/json path — a resume's shape
// its own decoder (decodeResumeLine), every other shape json.Unmarshal.
func decodeLine[E any](d *lineDecoder, b []byte, line *journalLine[E]) bool {
	switch l := any(line).(type) {
	case *journalLine[journaledExperiment]:
		if l.Record = d.resume(b); l.Record != nil {
			return true
		}
		return decodeResumeLine(b, l)
	case *journalLine[RecordSummary]:
		if l.Record = d.summary(b); l.Record != nil {
			return true
		}
	}
	return json.Unmarshal(b, line) == nil
}

// journaledExperiment is what a resume holds of a journaled experiment:
// the record, decoded as the journal was loaded, or why it does not
// decode. A line with no Experiment at all has neither, and its key is a
// miss: the experiment runs again.
type journaledExperiment struct {
	rec *ExperimentRecord
	err error
}

// decodeResumeLine decodes a journal line for a resume. Its line shape is
// the json.RawMessage one — any line whose Experiment is valid JSON parses,
// and the experiment is decoded on its own, as a fresh ExperimentRecord, so
// a record that does not decode is kept and fails the resume at lookup
// rather than becoming a garbled tail — but a whole line is decoded in one
// pass when that gives the same record: whenever the experiment is an
// object and the line cannot hold a second Experiment key.
func decodeResumeLine(b []byte, line *journalLine[journaledExperiment]) bool {
	var whole journalLine[*ExperimentRecord]
	if json.Unmarshal(b, &whole) == nil && (whole.Record == nil || whole.Record.Experiment != nil && oneExperimentKey(b)) {
		line.Journal = whole.Journal
		if r := whole.Record; r != nil {
			line.Record = &journalRecord[journaledExperiment]{Point: r.Point, Index: r.Index, Fingerprint: r.Fingerprint,
				Experiment: journaledExperiment{rec: r.Experiment}}
		}
		return true
	}
	var raw journalLine[json.RawMessage]
	if json.Unmarshal(b, &raw) != nil {
		return false
	}
	line.Journal = raw.Journal
	if r := raw.Record; r != nil {
		var e journaledExperiment
		if r.Experiment != nil { // "Experiment":null decodes to a zero record, as it always has
			rec := new(ExperimentRecord)
			if e.err = json.Unmarshal(r.Experiment, rec); e.err == nil {
				e.rec = rec
			}
		}
		line.Record = &journalRecord[journaledExperiment]{Point: r.Point, Index: r.Index, Fingerprint: r.Fingerprint, Experiment: e}
	}
	return true
}

// oneExperimentKey reports whether line can hold at most one key that
// encoding/json matches to a record's Experiment field. Given two,
// encoding/json decodes the second into the record the first one left,
// merging them, where the json.RawMessage shape keeps the last copy alone.
// Keys match case-insensitively, and no rune outside ASCII folds to a
// letter of "experiment", so every such key is a case-insensitive
// "experiment" in the bytes, or spells a letter with a \u escape.
func oneExperimentKey(line []byte) bool {
	const key = "experiment"
	seen := 0
	for _, x := range []byte{'x', 'X'} {
		for i := 0; ; i++ {
			at := bytes.IndexByte(line[i:], x)
			if at < 0 {
				break
			}
			i += at // line[i] is the x of a possible "experiment" at i-1
			if i >= 1 && i-1+len(key) <= len(line) && bytes.EqualFold(line[i-1:i-1+len(key)], []byte(key)) {
				seen++
			}
		}
	}
	for i := 0; ; i++ {
		at := bytes.Index(line[i:], []byte(`\u00`))
		if at < 0 {
			break
		}
		i += at
		if i+4 < len(line) && '4' <= line[i+4] && line[i+4] <= '7' { // U+0040–U+007F: the ASCII letters
			return false
		}
	}
	return seen <= 1
}

// load replays the journal for a resume: the header must carry this
// configuration's fingerprint, every whole record line is decoded and kept
// for lookup, and a torn or garbled tail is discarded by truncating the
// file to the last trusted line, so a crash costs at most the record lines
// still queued behind the committer. A later line of a key supersedes an
// earlier one.
func (j *journal) load(fingerprint string) error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	j.entries = make(map[journalKey]journalRecord[journaledExperiment])
	scan, err := readJournal(j.f, j.f.Name(), func(rec *journalRecord[journaledExperiment]) {
		j.entries[journalKey{rec.Point, rec.Index}] = *rec
	})
	if err != nil {
		return err
	}
	if scan.offset > 0 { // a header was read
		if scan.header.Fingerprint != fingerprint {
			return fmt.Errorf("campaign: checkpoint: journal was written by campaign %q (fingerprint %s), current configuration is %s; delete %s or fix the configuration",
				scan.header.Campaign, scan.header.Fingerprint, fingerprint, j.f.Name())
		}
		j.headerLoaded = true
	}
	if err := j.f.Truncate(scan.offset); err != nil {
		return fmt.Errorf("campaign: checkpoint: truncating torn journal tail: %w", err)
	}
	if _, err := j.f.Seek(scan.offset, io.SeekStart); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// write appends b — the header, or one commit round — and fsyncs it. It is
// the journal's only write, so its two observations are the whole
// durability cost. The caller serializes (open
// is single-threaded; afterwards only the committer writes).
func (j *journal) write(b []byte) error {
	var t0 time.Time
	if j.cm != nil {
		t0 = obs.Now()
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	var t1 time.Time
	if j.cm != nil {
		t1 = obs.Now()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if j.cm != nil {
		t2 := obs.Now()
		j.cm.JournalFsyncSeconds.Observe(t2.Sub(t1).Seconds())
		j.cm.JournalAppendSeconds.Observe(t2.Sub(t0).Seconds())
	}
	return nil
}

// append journals one completed record: it marshals the record line here,
// in the caller — so the line holds the record as it stood when analysis
// handed it over — queues it with its experiment event, and returns without
// waiting for the round that writes it; it waits only while the queue holds
// more than maxQueuedBytes. The committer emits the event once the line is
// durable. A write or fsync error is sticky: every later append returns it.
func (j *journal) append(rec journalRecord[*ExperimentRecord], p *progress) error {
	b, err := json.Marshal(journalLine[*ExperimentRecord]{Record: &rec})
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	// Appended records are deliberately not retained in j.entries: every
	// engine looks a key up before running it and never afterwards, and a
	// paper-scale campaign (tens of thousands of experiments, multi-KB
	// encoded timelines each) must not accumulate its entire serialized
	// output in memory. If a key ever were looked up after its append,
	// the miss costs one redundant re-run — the rerun's record is
	// journaled again and the later copy wins on the next resume.
	return j.enqueue(b, pending{p: p, kind: obs.EventExperiment, index: rec.Index, accepted: rec.Experiment.Accepted})
}

// enqueue queues a record line and its entry for the committer, waiting
// while the queue is over maxQueuedBytes, or — line nil — a line-less
// event, which never waits. A line is refused with the sticky commit error;
// after a failure line-less events still queue, so they keep their order.
// Once the journal is closing nothing queues.
func (j *journal) enqueue(line []byte, e pending) error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	for line != nil && len(j.lines) > maxQueuedBytes && j.err == nil && !j.closing {
		j.room.Wait()
	}
	if line != nil && j.err != nil {
		return j.err
	}
	if j.closing {
		return fmt.Errorf("campaign: checkpoint: append to a closed journal")
	}
	if line != nil {
		j.lines = append(append(j.lines, line...), '\n')
	}
	j.queue = append(j.queue, e)
	j.queued.Signal()
	return nil
}

// commit is the journal's committer goroutine. Each round swaps out every
// entry queued since the last one, writes their record lines in one write
// and one fsync, and then — outside cmu — emits their progress events in
// queue order; a round starts only when an entry is queued (no timer, no
// knob), and a round of line-less events writes nothing. The first write
// or fsync error is sticky: every later append and Close return it, no
// later round writes, and the failed round's records and every record
// queued behind them get no experiment event, while study-start and
// study-done events still fire in order. The committer returns on Close
// once the queue is empty.
func (j *journal) commit() {
	defer close(j.exited)
	// The last round's arrays queue the next one.
	var (
		lines   []byte
		entries []pending
	)
	for {
		j.cmu.Lock()
		for len(j.queue) == 0 && !j.closing {
			j.queued.Wait()
		}
		if len(j.queue) == 0 { // closing, and nothing left to write
			j.cmu.Unlock()
			return
		}
		lines, j.lines = j.lines, lines[:0]
		entries, j.queue = j.queue, entries[:0]
		err := j.err
		j.room.Broadcast()
		j.cmu.Unlock()

		if err == nil && len(lines) > 0 {
			if err = j.write(lines); err != nil {
				j.cmu.Lock()
				j.err = err
				j.room.Broadcast()
				j.cmu.Unlock()
			}
		}
		for _, e := range entries {
			if err == nil || e.kind != obs.EventExperiment {
				e.p.emit(e.kind, e.index, e.accepted)
			}
		}
		clear(entries) // drop the progress pointers until the array is reused
	}
}

// lookup returns the journaled record for (point, index), decoded when
// the journal was loaded, or nil when the journal has no complete record
// for it. A journaled record that does not decode is an error, and a
// record written under a different study fingerprint is a configuration
// mismatch, not a cache miss. Nil-receiver safe.
func (j *journal) lookup(point string, index int, fingerprint string) (*ExperimentRecord, error) {
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.entries[journalKey{point, index}]
	if !ok {
		return nil, nil
	}
	if rec.Fingerprint != fingerprint {
		return nil, fmt.Errorf("campaign: checkpoint: journaled record %s/%d was written by a different study configuration (fingerprint %s, want %s); delete the journal or restore the configuration",
			point, index, rec.Fingerprint, fingerprint)
	}
	// A key is consumed at most once per run (every engine looks an index
	// up before running it, never after): the record now belongs to the
	// study's result, and the journal lets go of it. A hypothetical second
	// lookup re-runs one experiment — sound, and the rerun's record
	// supersedes the old one on the next resume.
	delete(j.entries, journalKey{point, index})
	if err := rec.Experiment.err; err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: journaled record %s/%d: %w", point, index, err)
	}
	return rec.Experiment.rec, nil
}

// Close stops the committer once every queued line is written and every
// queued event emitted — Close itself writes nothing — and closes the
// file. It returns the first
// write or fsync error the journal met, or the close error. Nil-receiver
// safe.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.cmu.Lock()
	j.closing = true
	j.queued.Signal()
	j.cmu.Unlock()
	<-j.exited
	err := j.f.Close()
	if j.err != nil { // the committer has exited: nothing writes j.err now
		return j.err
	}
	return err
}

// closeJournal closes an engine's journal on its way out, joining the
// journal's sticky commit error, or the file's close error, into the
// engine's error *err: a run whose records did not all reach the disk has
// failed.
func closeJournal(j *journal, err *error) {
	if cerr := j.Close(); cerr != nil {
		*err = errors.Join(*err, cerr)
	}
}

// study binds the journal to one study's (or matrix point's) record
// namespace. Nil-receiver safe, returning nil (checkpointing disabled).
func (j *journal) study(c *Campaign, st *Study, point string) *studyJournal {
	if j == nil {
		return nil
	}
	return &studyJournal{j: j, point: point, fp: studyFingerprint(c, st, point)}
}

// studyJournal is one study's view of the journal: lookups and appends
// keyed by experiment index under the study's point name and fingerprint.
// All methods are nil-receiver safe so the engines thread it through
// unconditionally.
type studyJournal struct {
	j     *journal
	point string
	fp    string
}

// lookup returns the journaled record for the index — timelines and raw
// artifacts included — or nil.
func (sj *studyJournal) lookup(index int) (*ExperimentRecord, error) {
	if sj == nil {
		return nil, nil
	}
	return sj.j.lookup(sj.point, index, sj.fp)
}

// record journals one completed record and reports it on p. The record is
// queued, not yet durable, when record returns; its experiment event is
// emitted by the committer after the round that writes it, so the event
// still means "record fsync'd". Without a journal the event is emitted
// here.
func (sj *studyJournal) record(rec *ExperimentRecord, p *progress) error {
	if sj == nil {
		p.emit(obs.EventExperiment, rec.Index, rec.Accepted)
		return nil
	}
	return sj.j.append(journalRecord[*ExperimentRecord]{Point: sj.point, Index: rec.Index, Fingerprint: sj.fp, Experiment: rec}, p)
}

// event emits a line-less progress event (study start or done) on p. With
// a journal it is queued behind the study's records, so a study-done event
// follows the study's last experiment event, even after a failed round; a
// closed journal emits it at once.
func (sj *studyJournal) event(p *progress, kind string) {
	if sj == nil || sj.j.enqueue(nil, pending{p: p, kind: kind}) != nil {
		p.emit(kind, 0, false)
	}
}

// campaignFingerprint hashes the campaign-level configuration that defines
// record identity: name, virtual hosts with their hidden clock errors, and
// the sync/check configuration. Worker counts are deliberately excluded —
// resuming with a different pool size must reuse the records.
func campaignFingerprint(c *Campaign) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign %q\n", c.Name)
	for _, hd := range c.Hosts {
		fmt.Fprintf(h, "host %q clock %+v\n", hd.Name, hd.Clock)
	}
	fmt.Fprintf(h, "sync %+v\ncheck %+v\n", c.Sync, c.Check)
	// Every outcome-affecting scalar of the runtime config: the injected
	// notification delays and the watchdog, which decides when a silent
	// node is declared crashed. (Source, Logf, and Transport are code.)
	fmt.Fprintf(h, "runtime %v %v %v %v\n",
		c.Runtime.LocalDelay, c.Runtime.RemoteDelay,
		c.Runtime.WatchdogInterval, c.Runtime.WatchdogTimeout)
	// Virtual and real-time journals must never mix: virtual runs observe
	// exact simulated delays, so their records are not interchangeable with
	// wall-clock records of the same campaign.
	if c.VirtualTime {
		fmt.Fprintf(h, "virtual-time\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// studyFingerprint hashes one study's identity under the campaign: the
// point name, experiment count, transport, chaos seed, placement, and
// every node's fault specification (action calls included). Application
// bodies are code and cannot be hashed; the spec-visible surface is the
// stable identity the §2.2.3 study description defines.
func studyFingerprint(c *Campaign, st *Study, point string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign %s point %q study %q\n", campaignFingerprint(c), point, st.Name)
	fmt.Fprintf(h, "experiments %d timeout %v transport %q seed %d\n",
		st.Experiments, st.Timeout, st.Transport, st.ChaosSeed)
	if st.Restarts != nil {
		fmt.Fprintf(h, "restarts %+v\n", *st.Restarts)
	}
	for _, e := range st.Placement {
		fmt.Fprintf(h, "place %q %q\n", e.Nickname, e.Host)
	}
	for _, def := range st.Nodes {
		fmt.Fprintf(h, "node %q\n", def.Nickname)
		for _, f := range def.Faults {
			fmt.Fprintf(h, "fault %s %s %s", f.Name, f.Expr, f.Mode)
			if f.Action != nil {
				fmt.Fprintf(h, " %s", f.Action)
			}
			fmt.Fprintln(h)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
