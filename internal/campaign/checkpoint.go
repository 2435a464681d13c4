package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Campaign checkpointing (ROADMAP "campaign checkpointing/resume"): the
// paper's studies run tens of thousands of experiments (§2.3/§2.6), so an
// interrupted multi-hour matrix must not rerun from point zero. As each
// experiment's analysis completes, its ExperimentRecord — as it stands, in
// the bytes json.Marshal writes for it (appendRecord writes them without
// encoding/json), the global timeline in its §5.7 text and (for a
// one-experiment run) the local timelines in their §3.5.6 text — is
// appended to a JSONL journal under the artifact directory, keyed by
// {study-or-point name, experiment index}. A record line is its own commit
// record: it is trusted on resume when it is whole (newline-terminated) and
// its sum verifies; a torn or garbled tail is truncated, not trusted.
//
// The journal is group-committed behind the pipeline. An append encodes its
// record line in the calling analysis worker, straight into the commit
// queue, and returns; one committer goroutine per open journal writes every
// line queued since its last round in one write and fsyncs once, so rounds
// batch whatever queued during the previous fsync. Durability is confirmed
// by the committer: a journaled study's progress events are queued beside
// its lines and emitted after the round that holds them, in queue order, so
// an experiment event still means "this record is fsync'd" and a
// study-done event follows the study's last experiment event. The engines
// return only after Close has drained the queue. A crash loses at most the
// queued lines (bounded by maxQueuedBytes), whose experiments a resume
// re-runs.
//
// Every line is framed with a CRC-32C of its body (see frame), and the
// reader verifies a line's sum before it parses anything, so a line that
// verifies is the writer's: a record line is read in place by the strict
// decoder (lineDecoder) alone, whole for a resume and as a RecordSummary
// for Status and the report. A line that does not verify — torn by a crash,
// flipped on disk, edited by hand — is the end of the trusted journal,
// however well it parses.
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
	journalName = "checkpoint.jsonl"
	// Raise journalVersion with any change to a record's wire shape: the
	// strict decoder refuses an old shape as a bug, not as a version.
	journalVersion = 3
)

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
// how much of the experiment its user wants decoded. The writer encodes an
// *ExperimentRecord (appendRecord), and a resume decodes one whole as it
// loads the line; the read-only readers decode a RecordSummary — the
// verdict fields they print — and the timelines are validated and skipped,
// not parsed.
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
	f  *os.File
	fp string // the header's campaign fingerprint
	// cm, when non-nil, receives append and fsync latency observations —
	// the durability cost every journaled experiment pays.
	cm *obs.CampaignMetrics

	mu           sync.Mutex // guards entries
	entries      map[journalKey]journalRecord[*ExperimentRecord]
	headerLoaded bool

	// Group commit, all guarded by cmu: appenders queue record lines and
	// their entries and return, waiting on room only while more than
	// maxQueuedBytes are queued; the committer waits on queued.
	cmu     sync.Mutex
	queued  sync.Cond // an entry was queued, or Close was called
	room    sync.Cond // the committer took the queue, or failed
	lines   []byte    // record lines queued for the next round
	enc     recordEncoder
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
	p       *progress
	kind    string
	index   int
	verdict Verdict
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
	j := &journal{f: f, fp: fp, cm: c.Obs.CampaignMetrics()}
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
	b, err := json.Marshal(journalHeader{Version: journalVersion, Campaign: campaign, Fingerprint: fingerprint})
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return j.write(frame(nil, headerTag, b))
}

// A journal line frames a body — the header or record as JSON — between
// its tag and a tail: sumKey, eight lowercase hex digits of the body's
// CRC-32C, frameEnd. Deleting sumKey and the digits leaves the line
// {"journal":H} or {"record":R}.
const (
	headerTag = `{"journal":`
	recordTag = `{"record":`
	sumKey    = `,"sum":"`
	frameEnd  = "\"}\n"
	frameTail = len(sumKey) + 8 + len(frameEnd)
)

// castagnoli is built on first use, not at every process start (≈ 0.3 ms).
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// frame appends body, framed under tag, to dst as one journal line.
func frame(dst []byte, tag string, body []byte) []byte {
	return appendTail(append(append(dst, tag...), body...), body)
}

// appendTail appends the tail that frames body to dst.
func appendTail(dst, body []byte) []byte {
	dst = append(dst, sumKey...)
	sum := crc32.Checksum(body, castagnoli())
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[sum>>shift&0xf])
	}
	return append(dst, frameEnd...)
}

// unframe verifies one journal line, its newline included, and returns the
// body it frames and its tag — or no tag, for a line that is not framed or
// whose sum does not match its body.
func unframe(line []byte) (body []byte, tag string) {
	n := len(line) - frameTail // where the body ends
	for _, tag := range [...]string{recordTag, headerTag} {
		if n >= len(tag) && string(line[:len(tag)]) == tag {
			var tail [frameTail]byte
			if body := line[len(tag):n]; string(line[n:]) == string(appendTail(tail[:0], body)) {
				return body, tag
			}
			break
		}
	}
	return nil, ""
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
	// tailGarbled: a complete line that does not verify (see unframe), or
	// a second header. Nothing at or past it is trusted.
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
// complete line up to the first torn or garbled tail, and hands each record,
// decoded in shape E, to onRecord in journal order, on the caller's
// goroutine. What a caller does with the scan is its own discipline: the
// resume loader checks the fingerprint and truncates at scan.offset, the
// read-only readers report the tail state and never touch the file.
//
// The file is read in batches of whole lines, at most journalBatchBytes
// each (or one longer line). Each batch's lines are verified and decoded
// over GOMAXPROCS goroutines (decodeBatch), in runs of decodeRun
// consecutive lines, before the batch is walked in
// order; a line past the first untrusted one is decoded in vain, never
// handed on.
func readJournal[E *ExperimentRecord | RecordSummary](r io.Reader, path string, onRecord func(*journalRecord[E])) (journalScan, error) {
	var (
		scan  journalScan
		buf   = make([]byte, journalBatchBytes/4)
		n     int // bytes of buf read and not yet walked
		eof   bool
		lines [][]byte
		nth   int                                           // lines walked
		ds    = make([]*lineDecoder, runtime.GOMAXPROCS(0)) // one per decoding goroutine, reused batch to batch
		batch []decodedLine[E]                              // the batch's lines decoded, reused batch to batch
	)
	for i := range ds {
		ds[i] = new(lineDecoder) // each its own allocation: no two share a cache line
	}
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
		batch = decodeBatch(lines, ds, batch, decodeRun)
		for i, raw := range lines {
			nth++
			switch l := &batch[i]; {
			case scan.offset == 0: // the first line
				h, err := readHeader(raw, l.tag, path)
				if err != nil {
					return scan, err
				}
				scan.header = h
			case l.ok:
				onRecord(&l.rec)
			case l.tag == recordTag:
				return scan, fmt.Errorf("campaign: checkpoint: %s line %d: the record line verifies but does not decode", path, nth)
			default: // a line that does not verify, or a second header
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

// readHeader reads a journal's first complete line, which must be a
// verified header of this build's version. An older build's unframed
// header is refused naming both versions; any other line, a damaged header
// among them, means the file is not a journal, and is never read past.
func readHeader(line []byte, tag, path string) (journalHeader, error) {
	var l struct {
		Journal *journalHeader `json:"journal"`
	}
	switch err := json.Unmarshal(line, &l); {
	case err != nil || l.Journal == nil:
		return journalHeader{}, fmt.Errorf("campaign: checkpoint: %s is not a checkpoint journal", path)
	case tag != headerTag && (l.Journal.Version == journalVersion || bytes.Contains(line, []byte(sumKey))):
		return journalHeader{}, fmt.Errorf("campaign: checkpoint: %s is not a checkpoint journal: its header line does not verify", path)
	case l.Journal.Version != journalVersion:
		return journalHeader{}, fmt.Errorf("campaign: checkpoint: %s has journal version %d, this build reads and writes %d",
			path, l.Journal.Version, journalVersion)
	}
	return *l.Journal, nil
}

// decodedLine is one line of a batch as decodeBatch reads it: the tag of
// its frame, or "" when it does not verify, and, when ok, the record of a
// record line that decodes.
type decodedLine[E any] struct {
	tag string
	rec journalRecord[E]
	ok  bool
}

// decodeRun is how many consecutive lines a decoding goroutine claims at
// once. The lines of one matrix point's records mostly fall into one run,
// so one goroutine copies the point's name and fingerprint into its names
// table, not every goroutine; a batch (about 160 of resume-report's lines)
// still holds enough runs for all of them. Against runs of 1, 4, 64 and
// 256 on resume-report, 16 cut the allocations per record by 0.6 of what
// runs of 1 leave, where 64 and 256 cut 1.0 and 1.1 but leave a batch too
// few runs to share (EXPERIMENTS.md, "A resume checks its artifacts once
// per point directory").
const decodeRun = 16

// decodeBatch verifies lines and decodes their records into out, whose
// array it reuses, over up to one goroutine per decoder in ds — the
// caller's among them — that claim run consecutive lines at a time, each
// with its own decoder and so its own scratch. The records are read in
// place: a caller that keeps one copies it out. Production passes
// decodeRun; run is a parameter only so that TestDecodeRunsMatchOneAtATime
// can hold other run lengths against one line at a time.
func decodeBatch[E *ExperimentRecord | RecordSummary](lines [][]byte, ds []*lineDecoder, out []decodedLine[E], run int) []decodedLine[E] {
	out = slices.Grow(out[:0], len(lines))[:len(lines)]
	var next atomic.Int64
	work := func(d *lineDecoder) {
		for {
			lo := int(next.Add(int64(run))) - run
			if lo >= len(lines) {
				return
			}
			for i := lo; i < min(lo+run, len(lines)); i++ {
				l := &out[i]
				*l = decodedLine[E]{}
				var body []byte
				if body, l.tag = unframe(lines[i]); l.tag == recordTag {
					l.ok = decode(d, body, &l.rec)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(ds), (len(lines)+run-1)/run); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ds[w])
		}()
	}
	work(ds[0])
	wg.Wait()
	return out
}

// load replays the journal for a resume: the header must carry this
// configuration's fingerprint, every verified record line is decoded and
// kept for lookup, and a torn or garbled tail is discarded by truncating
// the file to the last trusted line, so a crash costs at most the record
// lines still queued behind the committer, and damage at most the records
// from the damaged line on. A later line of a key supersedes an earlier
// one.
func (j *journal) load(fingerprint string) error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	j.entries = make(map[journalKey]journalRecord[*ExperimentRecord])
	scan, err := readJournal(j.f, j.f.Name(), func(rec *journalRecord[*ExperimentRecord]) {
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

// append journals one completed record: it encodes the record's line here,
// in the caller — so the line holds the record as it stood when analysis
// handed it over — straight into the commit queue, queues it with its
// experiment event, and returns without waiting for the round that writes
// it; it waits only while the queue holds more than maxQueuedBytes. The
// committer emits the event once the line is durable. A write or fsync error
// is sticky: every later append returns it.
func (j *journal) append(rec journalRecord[*ExperimentRecord], p *progress) error {
	// Appended records are deliberately not retained in j.entries: every
	// engine looks a key up before running it and never afterwards, and a
	// paper-scale campaign (tens of thousands of experiments, multi-KB
	// encoded timelines each) must not accumulate its entire serialized
	// output in memory. If a key ever were looked up after its append,
	// the miss costs one redundant re-run — the rerun's record is
	// journaled again and the later copy wins on the next resume.
	return j.enqueue(&rec, pending{p: p, kind: obs.EventExperiment, index: rec.Index, verdict: rec.Experiment.Verdict()})
}

// enqueue queues a record, encoded as its line (appendRecord, then its
// frame's tail over the bytes just written), and its entry for the
// committer, waiting while the queue is over maxQueuedBytes, or — rec nil —
// a line-less event, which never waits. A record the encoder refuses leaves
// the queue as it was. A line is refused with the sticky commit error;
// after a failure line-less events still queue, so they keep their order.
// Once the journal is closing nothing queues.
func (j *journal) enqueue(rec *journalRecord[*ExperimentRecord], e pending) error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	for rec != nil && len(j.lines) > maxQueuedBytes && j.err == nil && !j.closing {
		j.room.Wait()
	}
	if rec != nil && j.err != nil {
		return j.err
	}
	if j.closing {
		return fmt.Errorf("campaign: checkpoint: append to a closed journal")
	}
	if rec != nil {
		line := len(j.lines)
		lines, err := j.enc.appendRecord(append(j.lines, recordTag...), rec)
		if err != nil {
			j.lines = lines[:line]
			return fmt.Errorf("campaign: checkpoint: record %s/%d: %w", rec.Point, rec.Index, err)
		}
		j.lines = appendTail(lines, lines[line+len(recordTag):])
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
				e.p.emit(e.kind, e.index, e.verdict)
			}
		}
		clear(entries) // drop the progress pointers until the array is reused
	}
}

// lookup returns the journaled record for (point, index), decoded when
// the journal was loaded, or nil when the journal has no complete record
// for it. A record written under a different study fingerprint is a
// configuration mismatch, not a cache miss. Nil-receiver safe.
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
	return rec.Experiment, nil
}

// journalOnly returns the verdicts of the loaded records no engine looked
// up — a resumed journal's keys outside the studies, points or experiment
// indexes this run covers — sorted by key. Nil-receiver safe.
func (j *journal) journalOnly() []RecordSummary {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []RecordSummary
	for k, rec := range j.entries {
		out = append(out, Summarize(k.Point, rec.Experiment))
	}
	slices.SortFunc(out, func(a, b RecordSummary) int {
		return cmp.Or(strings.Compare(a.Point, b.Point), cmp.Compare(a.Index, b.Index))
	})
	return out
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
// namespace under campaignFP, its campaign's fingerprint ("": the
// journal's own). Nil-receiver safe, returning nil (no checkpointing).
func (j *journal) study(campaignFP string, st *Study, point string) *studyJournal {
	if j == nil {
		return nil
	}
	if campaignFP == "" {
		campaignFP = j.fp
	}
	return &studyJournal{j: j, point: point, fp: studyFingerprint(campaignFP, st, point)}
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
		p.emit(obs.EventExperiment, rec.Index, rec.Verdict())
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
		p.emit(kind, 0, 0)
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

// studyFingerprint hashes one study's identity under the campaign whose
// fingerprint is campaignFP: the point name, experiment count, transport,
// chaos seed, placement, and every node's fault specification (action
// calls included). Application bodies are code and cannot be hashed; the
// spec-visible surface is the stable identity the §2.2.3 study description
// defines. The text hashed is appended byte for byte as the fmt verbs of
// refStudyFingerprint (a test) print it: journals resume only under it.
func studyFingerprint(campaignFP string, st *Study, point string) string {
	var buf [512]byte
	b := append(append(buf[:0], "campaign "...), campaignFP...)
	b = strconv.AppendQuote(append(b, " point "...), point)
	b = strconv.AppendQuote(append(b, " study "...), st.Name)
	b = strconv.AppendInt(append(b, "\nexperiments "...), int64(st.Experiments), 10)
	b = append(append(b, " timeout "...), st.Timeout.String()...)
	b = strconv.AppendQuote(append(b, " transport "...), st.Transport)
	b = append(strconv.AppendInt(append(b, " seed "...), st.ChaosSeed, 10), '\n')
	if st.Restarts != nil {
		b = fmt.Appendf(b, "restarts %+v\n", *st.Restarts)
	}
	for _, e := range st.Placement {
		b = strconv.AppendQuote(append(b, "place "...), e.Nickname)
		b = append(strconv.AppendQuote(append(b, ' '), e.Host), '\n')
	}
	for _, def := range st.Nodes {
		b = append(strconv.AppendQuote(append(b, "node "...), def.Nickname), '\n')
		for _, f := range def.Faults {
			b = append(append(append(append(b, "fault "...), f.Name...), ' '), f.Expr.String()...)
			b = append(append(b, ' '), f.Mode.String()...)
			if f.Action != nil {
				b = f.Action.AppendSyntax(append(b, ' '))
			}
			b = append(b, '\n')
		}
	}
	sum := uint64(14695981039346656037) // FNV-1a, as hash/fnv's New64a
	for _, c := range b {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	var hex [16]byte
	for i := range hex {
		hex[i] = "0123456789abcdef"[sum>>(60-4*i)&0xf]
	}
	return string(hex[:])
}
