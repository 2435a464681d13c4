package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
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
// The journal is group-committed: one committer goroutine per open journal
// writes every record line queued since its last round in one write, and
// fsyncs once. An append returns when its record line is durable. An
// experiment therefore costs at most one fsync, and a crash costs at most
// the last round's records (one per concurrent appender).
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
// *ExperimentRecord; a resume loads json.RawMessage and decodes a record
// when the engine looks its key up; the read-only readers decode a
// RecordSummary — the verdict fields they print — and the timelines are
// skipped unparsed.
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
	entries      map[journalKey]journalRecord[json.RawMessage]
	headerLoaded bool

	// Group commit, all guarded by cmu: appenders queue record lines and
	// wait on flushed until the round that took them is fsync'd; the
	// committer waits on queued.
	cmu     sync.Mutex
	queued  sync.Cond // a record line was queued, or Close was called
	flushed sync.Cond // a round was fsync'd, or failed
	lines   []byte    // record lines queued for the next round
	started uint64    // rounds the committer has taken from the queue
	synced  uint64    // rounds fsync'd
	err     error     // the first write or fsync error; every later append and Close return it
	closing bool
	exited  chan struct{} // closed when the committer returns
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
	j := &journal{f: f, entries: make(map[journalKey]journalRecord[json.RawMessage]), cm: c.Obs.CampaignMetrics()}
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
	j.queued.L, j.flushed.L = &j.cmu, &j.cmu
	j.exited = make(chan struct{})
	go j.commit()
	return j, nil
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

// readJournal is the one reader of the journal format. It validates the
// header line (a journal at all, of this build's version), walks every
// complete line up to the first torn or garbled tail, and hands each record
// to onRecord in journal order. What a caller does with the scan is its own
// discipline: the resume loader checks the fingerprint and truncates at
// scan.offset, the read-only readers report the tail state and never touch
// the file.
func readJournal[E any](r io.Reader, path string, onRecord func(*journalRecord[E])) (journalScan, error) {
	var (
		scan journalScan
		br   = bufio.NewReaderSize(r, 1<<16)
	)
scanning:
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				return scan, fmt.Errorf("campaign: checkpoint: reading %s: %w", path, err)
			}
			if len(raw) > 0 {
				scan.tail = tailAppending
			}
			break
		}
		var line journalLine[E]
		if json.Unmarshal(raw, &line) != nil {
			scan.tail = tailGarbled
			break
		}
		switch {
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
			break scanning
		}
		scan.offset += int64(len(raw))
	}
	return scan, nil
}

// load replays the journal for a resume: the header must carry this
// configuration's fingerprint, every whole record line is kept (still
// marshalled) for lookup, and a torn or garbled tail is discarded by
// truncating the file to the last trusted line, so a crash costs at most
// the records of the last commit round.
func (j *journal) load(fingerprint string) error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	scan, err := readJournal(j.f, j.f.Name(), func(rec *journalRecord[json.RawMessage]) {
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

// append journals one completed record: it queues the record line and
// returns once the commit round that wrote it has been fsync'd. A write or
// fsync error fails every waiting and later append. Nil-receiver safe
// (checkpointing disabled).
func (j *journal) append(rec journalRecord[*ExperimentRecord]) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(journalLine[*ExperimentRecord]{Record: &rec})
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	j.cmu.Lock()
	defer j.cmu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closing {
		return fmt.Errorf("campaign: checkpoint: append to a closed journal")
	}
	// Appended records are deliberately not retained in j.entries: every
	// engine looks a key up before running it and never afterwards, and a
	// paper-scale campaign (tens of thousands of experiments, multi-KB
	// encoded timelines each) must not accumulate its entire serialized
	// output in memory. If a key ever were looked up after its append,
	// the miss costs one redundant re-run — the rerun's record is
	// journaled again and the later copy wins on the next resume.
	j.lines = append(append(j.lines, b...), '\n')
	round := j.started + 1
	j.queued.Signal()
	for j.synced < round && j.err == nil {
		j.flushed.Wait()
	}
	if j.synced >= round {
		return nil
	}
	return j.err
}

// commit is the journal's committer goroutine. Each round swaps out every
// record line queued since the last one and writes them in one write and
// one fsync; a round starts only when a record is queued — no timer, no
// knob. The committer returns on Close once the queue is empty, or on the
// first error, which every append after it returns.
func (j *journal) commit() {
	defer close(j.exited)
	var round []byte // the lines the last round wrote; its array queues the next
	for {
		j.cmu.Lock()
		for len(j.lines) == 0 && !j.closing {
			j.queued.Wait()
		}
		if len(j.lines) == 0 { // closing, and nothing left to write
			j.cmu.Unlock()
			return
		}
		round, j.lines = j.lines, round[:0]
		j.started++
		j.cmu.Unlock()

		err := j.write(round)
		j.cmu.Lock()
		if err != nil {
			j.err = err
		} else {
			j.synced++
		}
		j.flushed.Broadcast()
		j.cmu.Unlock()
		if err != nil {
			return
		}
	}
}

// lookup returns the journaled record for (point, index), still
// marshalled, or nil when the journal has no complete record for it. A
// record written under a different study fingerprint is a configuration
// mismatch, not a cache miss. Nil-receiver safe.
func (j *journal) lookup(point string, index int, fingerprint string) (json.RawMessage, error) {
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
	// up before running it, never after), so the multi-KB payload is
	// released here instead of staying resident for the whole campaign. A
	// hypothetical second lookup re-runs one experiment — sound, and the
	// rerun's record supersedes the old one on the next resume.
	delete(j.entries, journalKey{point, index})
	return rec.Experiment, nil
}

// Close stops the committer once any lines already queued are written —
// Close itself writes nothing — and closes the file. It returns the first
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

// lookup returns the journaled record for the index — decoded here, on
// first use, timelines and raw artifacts included — or nil.
func (sj *studyJournal) lookup(index int) (*ExperimentRecord, error) {
	if sj == nil {
		return nil, nil
	}
	raw, err := sj.j.lookup(sj.point, index, sj.fp)
	if err != nil || raw == nil {
		return nil, err
	}
	rec := new(ExperimentRecord)
	if err := json.Unmarshal(raw, rec); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: journaled record %s/%d: %w", sj.point, index, err)
	}
	return rec, nil
}

// record journals one completed record and returns once it is durable, so
// the progress event the pipeline emits after it means "record fsync'd".
func (sj *studyJournal) record(rec *ExperimentRecord) error {
	if sj == nil {
		return nil
	}
	return sj.j.append(journalRecord[*ExperimentRecord]{Point: sj.point, Index: rec.Index, Fingerprint: sj.fp, Experiment: rec})
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
