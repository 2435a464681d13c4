package loki

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/clocksync"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/timeline"
	"repro/internal/transport"
)

// Session is the composable entry point to the whole pipeline: one opened
// campaign — from Go wiring or a declarative campaign file — that can run
// every engine the package has (the in-process worker pool, the scenario
// matrix, loopback clusters, real multi-process members), journal and
// resume, summarize its checkpoint journal, and emit artifacts, all behind
// one API:
//
//	s, err := loki.Open("campaign.json", loki.WithWorkers(8))
//	defer s.Close()
//	res, err := s.Run(ctx)
//
// Open accepts a *loki.Campaign (Go wiring), a *loki.CampaignFile (a
// parsed campaign file), or a string path to a campaign.json. Options
// compose on top of whatever the spec declared; the spec itself is never
// mutated.
type Session struct {
	c *Campaign
	m *Matrix

	transport string // WithTransport override ("" = as specified)
	artifacts string
	cluster   *ClusterConfig
	traceReq  bool   // WithTracing requested
	traceDir  string // explicit trace directory ("" = ARTIFACTS/traces)

	tr     Transport
	member *campaign.Member
	closed bool
}

// CampaignFile is a parsed declarative campaign file (internal/config):
// one JSON schema covering hosts, studies, the scenario matrix, transport,
// checkpointing, cluster topology, and measures.
type CampaignFile = config.Campaign

// StudyFile is one study block of a campaign file, exported so drivers
// can assemble campaign descriptions in code as well as load them from
// JSON (the engine-level Study alias is the built result, not the
// description).
type StudyFile = config.Study

// NodeFile is one node entry of a campaign-file study.
type NodeFile = config.Node

// LoadCampaignFile loads and validates a campaign file from disk.
func LoadCampaignFile(path string) (*CampaignFile, error) { return config.LoadFile(path) }

// ParseCampaignFile decodes a campaign file from memory (not yet
// validated; Open and ValidateCampaignFile validate).
func ParseCampaignFile(data []byte) (*CampaignFile, error) { return config.Parse(data) }

// EncodeCampaignFile renders a campaign file as indented JSON;
// ParseCampaignFile round-trips it.
func EncodeCampaignFile(f *CampaignFile) ([]byte, error) { return config.Encode(f) }

// ValidateCampaignFile checks a campaign file without running anything.
func ValidateCampaignFile(f *CampaignFile) error { return config.Validate(f) }

// CampaignFileFingerprint hashes a campaign file's canonical encoding:
// stable across field reordering and formatting, changed by any semantic
// edit.
func CampaignFileFingerprint(f *CampaignFile) string { return config.Fingerprint(f) }

// CampaignFileMeasures compiles the file's declarative measures.
func CampaignFileMeasures(f *CampaignFile) ([]*StudyMeasure, error) {
	return config.BuildMeasures(f)
}

// ClusterConfig places this process in a multi-process campaign: which
// peer it is, where it listens, and which peers own which virtual hosts.
// The peer owning the lexicographically first host coordinates.
type ClusterConfig struct {
	// Kind is the socket transport: "udp" (default) or "tcp".
	Kind string
	// Name is this process's peer name.
	Name string
	// Listen overrides the Peers entry for Name (so a process may listen
	// on 0.0.0.0 while peers dial its routable address).
	Listen string
	// Peers maps peer name to dial address, every process included.
	Peers map[string]string
	// Owners maps virtual host to owning peer.
	Owners map[string]string
}

// kind is the cluster's socket transport, UDP unless Kind says otherwise.
func (cl *ClusterConfig) kind() string {
	if cl.Kind == "" {
		return TransportUDP
	}
	return cl.Kind
}

// Option configures a Session at Open.
type Option func(*Session) error

// WithWorkers overrides the concurrent experiment executor count
// (0 = GOMAXPROCS; Open rejects a negative count).
func WithWorkers(n int) Option {
	return func(s *Session) error {
		s.c.Workers = n
		return nil
	}
}

// WithTransport runs every study of the session over the named transport:
// "inproc" (one runtime, in-memory bus, worker pool), "udp", or "tcp"
// (one runtime per host over loopback sockets), overriding whatever the
// spec declared. An empty kind is a no-op — the spec's transports stand —
// so a driver can plumb an optional flag through unconditionally without
// silently downgrading a socket study to inproc.
func WithTransport(kind string) Option {
	return func(s *Session) error {
		if !transport.ValidKind(kind) {
			return fmt.Errorf("loki: unknown transport %q (want inproc, udp, or tcp)", kind)
		}
		if kind != "" {
			s.transport = kind
		}
		return nil
	}
}

// WithVirtualTime runs the session's studies on a simulated clock: every
// wait in the engine and the applications — sync spacing, fault dormancy,
// heartbeats, watchdog polls, experiment timeouts — completes instantly in
// wall-clock terms while the recorded timestamps keep the configured
// host-clock offset/drift geometry, so the analysis phase sees the same
// convex-hull estimation problem a real-time run poses. Requires the
// inproc transport (sockets carry real wall-clock latency) and no cluster.
//
// Under virtual time, application code must block only through Handle and
// Clock primitives (Handle.Sleep, Handle.WaitMessage, Handle.Go,
// Clock.NewWaiter) — a raw channel receive or time.Sleep is invisible to
// the virtual scheduler and would either freeze simulated time or be
// skipped over by it.
//
// A matrix whose points each get one worker (Workers at most the number
// of points) journals byte for byte the same at any such worker count:
// each point runs on one testbed, rewound to the state a fresh one has.
// A study, or a matrix point given several workers, does so only at
// Workers 1: a worker's virtual clock keeps running across its
// experiments, so a record depends on which worker ran it and what that
// worker ran before.
func WithVirtualTime() Option {
	return func(s *Session) error {
		s.c.VirtualTime = true
		return nil
	}
}

// WithCheckpoint journals every completed experiment record to
// dir/checkpoint.jsonl; with resume, journaled records are skipped on the
// next Run, restarting a killed campaign at the first missing experiment.
func WithCheckpoint(dir string, resume bool) Option {
	return func(s *Session) error {
		if dir == "" {
			return fmt.Errorf("loki: WithCheckpoint needs a directory")
		}
		s.c.Checkpoint = &Checkpoint{Dir: dir, Resume: resume}
		return nil
	}
}

// WithMatrix fans the session out into {scenarios x latencies x seeds}
// points instead of running Campaign.Studies. Mutually exclusive with a
// matrix declared by a campaign file.
func WithMatrix(m *Matrix) Option {
	return func(s *Session) error {
		if s.m != nil {
			return fmt.Errorf("loki: session already has a matrix")
		}
		s.m = m
		return nil
	}
}

// WithCluster joins this process to a multi-process campaign as the named
// peer. Run then either coordinates the study (this peer owns the
// reference host) or serves the coordinator's protocol.
func WithCluster(cl ClusterConfig) Option {
	return func(s *Session) error {
		if cl.Name == "" {
			return fmt.Errorf("loki: cluster config needs a peer Name")
		}
		s.cluster = &cl
		return nil
	}
}

// WithArtifacts writes pipeline artifacts under dir: per-experiment global
// timelines, alphabeta bounds and verdicts after Run, and the raw
// per-machine timelines plus timestamps file after RunOne. Checkpoint
// journaling defaults to the same directory when not configured
// separately.
//
// Each file is verified before it is written: one that already holds its
// bytes is left untouched, mtime included, so a Resume over an intact
// tree writes nothing; one that differs is overwritten in place and cut
// to length. A target that is not a regular file (a pipe, a terminal,
// /dev/null) is written once and never read or truncated.
//
// Artifact files are derived output and not crash-consistent: a crash
// mid-rewrite can leave old and new bytes mixed, as a crash just after
// truncation once left an empty file. The journal is the durable record;
// Resume rebuilds the artifacts from it.
func WithArtifacts(dir string) Option {
	return func(s *Session) error {
		if dir == "" {
			return fmt.Errorf("loki: WithArtifacts needs a directory")
		}
		s.artifacts = dir
		if s.c.Checkpoint == nil {
			s.c.Checkpoint = &Checkpoint{Dir: dir}
		}
		return nil
	}
}

// Open opens a session over a campaign spec: a *Campaign (Go wiring), a
// *CampaignFile (parsed campaign file), or a string path to a campaign
// file. The spec is copied shallowly, so options never mutate the
// caller's value. A campaign file is translated (config.Build) and its
// measures compiled. Once every option is applied, Open checks what only
// a session knows — a cluster runs one study, with no matrix, and a
// session holds studies or a matrix, not both — and then runs
// campaign.Validate, the one owner of the engines' rules, on the campaign
// as it will run: transport override applied, a cluster's study over the
// cluster's sockets. So every rule fails here, before a journal is opened
// or an experiment runs.
func Open(spec any, opts ...Option) (*Session, error) {
	s := &Session{}
	switch v := spec.(type) {
	case *Campaign:
		if v == nil {
			return nil, fmt.Errorf("loki: Open(nil *Campaign)")
		}
		cc := *v
		cc.Studies = append([]*Study(nil), v.Studies...)
		if v.Checkpoint != nil {
			// Deep-copy the checkpoint so Resume's flag flip never
			// reaches the caller's spec through the shared pointer.
			cp := *v.Checkpoint
			cc.Checkpoint = &cp
		}
		s.c = &cc
	case *CampaignFile:
		if v == nil {
			return nil, fmt.Errorf("loki: Open(nil *CampaignFile)")
		}
		if err := s.openFile(v); err != nil {
			return nil, err
		}
	case string:
		// Parse here, not LoadFile: Open validates once, below.
		data, err := os.ReadFile(v)
		if err != nil {
			return nil, fmt.Errorf("loki: %w", err)
		}
		f, err := config.Parse(data)
		if err == nil {
			err = s.openFile(f)
		}
		if err != nil {
			return nil, fmt.Errorf("loki: %s: %w", v, err)
		}
	case nil:
		return nil, fmt.Errorf("loki: Open(nil)")
	default:
		return nil, fmt.Errorf("loki: Open: unsupported spec type %T (want *Campaign, *CampaignFile, or a path)", spec)
	}
	// A campaign file's cluster section is deliberately NOT auto-adopted:
	// the schema promises in-process engines ignore it (a shared file
	// must stay runnable by lokirun), and only the driver knows which
	// peer this process is. lokirun merges the section with its -name flag
	// and passes the result through WithCluster.
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.resolveTracing(); err != nil {
		return nil, err
	}
	if s.m != nil && len(s.c.Studies) > 0 {
		return nil, fmt.Errorf("loki: campaign has both studies and a matrix; open two sessions")
	}
	kind := s.transport
	if s.cluster != nil {
		if s.m != nil {
			return nil, fmt.Errorf("loki: cluster mode runs a single study, not a matrix")
		}
		if len(s.c.Studies) != 1 {
			return nil, fmt.Errorf("loki: cluster mode needs exactly one study, have %d", len(s.c.Studies))
		}
		kind = s.cluster.kind()
	}
	s.setTransport(kind)
	if err := campaign.Validate(s.c, s.m); err != nil {
		return nil, err
	}
	return s, nil
}

// setTransport puts every study of the session, and the matrix template,
// over the named transport — on copies, never on the caller's studies or
// matrix — or leaves them as specified for "". Open calls it once, so
// validating, running, journaling and Status all see one campaign.
func (s *Session) setTransport(kind string) {
	if kind == "" {
		return
	}
	for i, st := range s.c.Studies {
		stc := *st
		stc.Transport = kind
		s.c.Studies[i] = &stc
	}
	if s.m != nil && s.m.Study != nil {
		mc, st := *s.m, *s.m.Study
		st.Transport = kind
		mc.Study = &st
		s.m = &mc
	}
}

// openFile translates a campaign file into the session's campaign and
// matrix. The file's measures are compiled and dropped, so a typo in one
// fails at Open rather than after the run.
func (s *Session) openFile(f *CampaignFile) error {
	cc, m, err := config.Build(f)
	if err != nil {
		return err
	}
	if _, err := config.BuildMeasures(f); err != nil {
		return err
	}
	s.c, s.m = cc, m
	return nil
}

// SessionResult is one Run's complete output: studies or matrix points —
// or neither, for a non-coordinator cluster member whose serving duty
// ended.
type SessionResult struct {
	// Campaign holds the per-study results of a studies campaign.
	Campaign *CampaignOutcome
	// Matrix holds the per-point results of a matrix campaign.
	Matrix *MatrixOutcome
	// Served is true for a cluster member that followed the coordinator's
	// protocol; results are the coordinator's.
	Served bool
}

// Experiment is one experiment's full output with the raw runtime
// artifacts the file-oriented tools consume.
type Experiment struct {
	Record *ExperimentRecord
	Stamps []StampedMessage
	Locals []*LocalTimeline
	// Served is true for a cluster member that followed the coordinator's
	// protocol; the record is the coordinator's.
	Served bool
}

// eachStudy calls fn with every study's (or matrix point's) result, under
// the name its records are journaled by.
func (res *SessionResult) eachStudy(fn func(name string, sr *StudyOutcome)) {
	if res.Campaign != nil {
		for _, sr := range res.Campaign.Studies {
			fn(sr.Name, sr)
		}
	}
	if res.Matrix != nil {
		for _, pr := range res.Matrix.Points {
			fn(pr.Point.Name(), pr.Study)
		}
	}
}

// runnable re-checks open state.
func (s *Session) runnable() error {
	if s == nil {
		return fmt.Errorf("loki: nil session")
	}
	if s.closed {
		return fmt.Errorf("loki: session is closed")
	}
	return nil
}

// Run executes the session end to end — every experiment of every study
// or matrix point, runtime phase through analysis phase — and, with
// WithArtifacts, writes the per-experiment artifacts. Cancelling ctx
// stops dispatching further experiments, drains in-flight ones (clustered
// protocols are quit immediately), and returns ctx.Err(); journaled
// progress survives for Resume.
//
// In cluster mode the coordinator returns the study results; a
// non-coordinator member serves the protocol and returns Served.
func (s *Session) Run(ctx context.Context) (*SessionResult, error) {
	if err := s.runnable(); err != nil {
		return nil, err
	}
	res := &SessionResult{}
	if s.cluster != nil {
		out, err := s.runClustered(ctx, false)
		if err != nil {
			return nil, err
		}
		if out == nil {
			return &SessionResult{Served: true}, nil
		}
		res.Campaign = out
	} else if s.m != nil {
		out, err := campaign.RunMatrix(ctx, s.c, s.m)
		if err != nil {
			return nil, err
		}
		res.Matrix = out
	} else {
		out, err := campaign.Run(ctx, s.c)
		if err != nil {
			return nil, err
		}
		res.Campaign = out
	}
	return res, s.writeRunArtifacts(res)
}

// RunOne is Run of exactly one experiment of the session's (first) study
// whose record keeps the raw runtime artifacts — the mode of
// "lokirun runtime". With WithArtifacts, the §3.5.6 timeline files and
// the timestamps file are written for an analysed (rejected or accepted) run.
func (s *Session) RunOne(ctx context.Context) (*Experiment, error) {
	if err := s.runnable(); err != nil {
		return nil, err
	}
	if s.m != nil {
		return nil, fmt.Errorf("loki: RunOne runs one experiment of a study campaign; this session has a matrix (use Run)")
	}
	var out *CampaignOutcome
	var err error
	if s.cluster != nil {
		out, err = s.runClustered(ctx, true)
	} else {
		out, err = campaign.RunSingle(ctx, s.c)
	}
	if err != nil {
		return nil, err
	}
	if out == nil {
		return &Experiment{Served: true}, nil
	}
	rec := out.Studies[0].Records[0]
	e := &Experiment{Record: rec, Stamps: rec.Stamps, Locals: rec.Locals}
	return e, s.writeRawArtifacts(e, &SessionResult{Campaign: out})
}

// Resume re-runs the session against its checkpoint journal: journaled
// experiments are loaded, only the missing ones execute. It requires a
// checkpoint (or artifacts) directory. The resume is this call's alone: a
// later Run journals from scratch again, unless WithCheckpoint asked for
// resume itself.
func (s *Session) Resume(ctx context.Context) (*SessionResult, error) {
	if err := s.runnable(); err != nil {
		return nil, err
	}
	if s.c.Checkpoint == nil {
		return nil, fmt.Errorf("loki: Resume needs WithCheckpoint or WithArtifacts (there is no journal to resume from)")
	}
	defer func(was bool) { s.c.Checkpoint.Resume = was }(s.c.Checkpoint.Resume)
	s.c.Checkpoint.Resume = true
	return s.Run(ctx)
}

// runClustered is Run (or, with one, RunOne) in cluster mode: the
// coordinator drives the study and returns its result; any other member
// serves the protocol and returns nil.
func (s *Session) runClustered(ctx context.Context, one bool) (*CampaignOutcome, error) {
	if err := s.openMember(); err != nil {
		return nil, err
	}
	if !s.member.Coordinator() {
		return nil, s.member.Serve(ctx)
	}
	return s.member.RunStudy(ctx, one)
}

// openMember lazily builds the cluster transport and member.
func (s *Session) openMember() error {
	if s.member != nil {
		return nil
	}
	cl := s.cluster
	peers := make(map[string]string, len(cl.Peers))
	for k, v := range cl.Peers {
		peers[k] = v
	}
	if cl.Listen != "" {
		peers[cl.Name] = cl.Listen
	}
	topo := TransportTopology{Local: cl.Name, Peers: peers, Hosts: cl.Owners}
	tr, err := transport.New(cl.kind(), topo, nil)
	if err != nil {
		return err
	}
	member, err := campaign.NewMember(s.c, s.c.Studies[0], tr)
	if err != nil {
		tr.Close()
		return err
	}
	s.tr, s.member = tr, member
	return nil
}

// ClusterCoordinator reports whether this session's peer owns the
// reference host and will therefore coordinate (and analyze, and write
// artifacts) rather than serve. It opens the cluster endpoint if needed;
// only valid with WithCluster.
func (s *Session) ClusterCoordinator() (bool, error) {
	if err := s.runnable(); err != nil {
		return false, err
	}
	if s.cluster == nil {
		return false, fmt.Errorf("loki: not a cluster session")
	}
	if err := s.openMember(); err != nil {
		return false, err
	}
	return s.member.Coordinator(), nil
}

// Close releases the session's cluster resources (member runtime and
// transport endpoint). Sessions without a cluster hold nothing between
// runs; Close is still the polite bookend.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	if s.member != nil {
		s.member.Quit()
		s.member.Close()
		s.member = nil
	}
	if s.tr != nil {
		s.tr.Close()
		s.tr = nil
	}
	return nil
}

// PointStatus is one study's (or matrix point's) checkpoint progress.
type PointStatus struct {
	// Point is the study or matrix point name.
	Point string
	// Expected is the configured experiment count (0 when the point
	// appears only in the journal).
	Expected int
	// Complete counts journaled records whose whole line survived.
	Complete int
	// Accepted counts complete records that passed the analysis phase.
	Accepted int
}

// Missing is Expected - Complete, floored at zero.
func (p PointStatus) Missing() int {
	if p.Expected <= p.Complete {
		return 0
	}
	return p.Expected - p.Complete
}

// SessionStatus summarizes a session's checkpoint journal against its
// configuration — what is complete, what is missing, what was accepted —
// without running anything.
type SessionStatus struct {
	// Dir is the journal's directory; JournalPath the file itself.
	Dir         string
	JournalPath string
	// Campaign and Fingerprint echo the journal header.
	Campaign    string
	Fingerprint string
	// FingerprintMatch reports whether the journal was written by this
	// session's configuration: the campaign-level header matches and every
	// journaled study's or matrix point's record fingerprint matches too,
	// so a Resume that would refuse is reported here.
	FingerprintMatch bool
	// Appending reports trailing journal bytes without a newline — a
	// writer mid-append, or a crash at that instant. The bytes are
	// ignored, not an error.
	Appending bool
	// Torn reports a damaged journal line (damage, not a live append):
	// everything counted precedes it, and a Resume re-runs the
	// experiments journaled from it on.
	Torn bool
	// Points lists per-study/point progress, spec points first (in spec
	// order), then journal-only points.
	Points []PointStatus
}

// Totals sums expected, complete, and accepted counts.
func (st *SessionStatus) Totals() (expected, complete, accepted int) {
	for _, p := range st.Points {
		expected += p.Expected
		complete += p.Complete
		accepted += p.Accepted
	}
	return
}

// AcceptRate is accepted/complete (0 when nothing is complete).
func (st *SessionStatus) AcceptRate() float64 {
	_, complete, accepted := st.Totals()
	if complete == 0 {
		return 0
	}
	return float64(accepted) / float64(complete)
}

// Status reads the session's checkpoint journal and reports per-point
// completion and acceptance against the configured experiment counts —
// `lokirun -status` is exactly this call. It runs nothing and never
// modifies the journal.
func (s *Session) Status() (*SessionStatus, error) {
	if err := s.runnable(); err != nil {
		return nil, err
	}
	if s.c.Checkpoint == nil || s.c.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("loki: Status needs WithCheckpoint or WithArtifacts (there is no journal to summarize)")
	}
	dir := s.c.Checkpoint.Dir
	sum, err := campaign.SummarizeJournal(dir)
	if err != nil {
		return nil, err
	}
	configured, err := campaign.Namespaces(s.c, s.m)
	if err != nil {
		return nil, err
	}
	observed := make(map[string]campaign.PointProgress, len(sum.Points))
	for _, p := range sum.Points {
		observed[p.Point] = p
	}
	st := &SessionStatus{
		Dir:         dir,
		JournalPath: sum.Path,
		Campaign:    sum.Campaign,
		Fingerprint: sum.Fingerprint,
		// The header covers campaign-level configuration only; the study
		// fingerprints Resume enforces (transport, faults, experiment
		// count, ...) are compared below, so a match means Resume accepts.
		FingerprintMatch: sum.Fingerprint == campaign.ConfigFingerprint(s.c),
		Appending:        sum.Appending,
		Torn:             sum.Torn,
	}
	for _, ns := range configured {
		o, ok := observed[ns.Name]
		st.FingerprintMatch = st.FingerprintMatch && (!ok || o.Fingerprint == ns.Fingerprint)
		delete(observed, ns.Name)
		st.Points = append(st.Points, PointStatus{Point: ns.Name, Expected: ns.Experiments, Complete: o.Experiments, Accepted: o.Accepted})
	}
	// Journal-only points follow, in the summary's (sorted) order.
	for _, o := range sum.Points {
		if _, journalOnly := observed[o.Point]; journalOnly {
			st.Points = append(st.Points, PointStatus{Point: o.Point, Complete: o.Experiments, Accepted: o.Accepted})
		}
	}
	return st, nil
}

// writeRunArtifacts emits the analysis artifacts of every record with a
// global timeline: DIR[/study-or-point]/expNNN/{global.timeline,
// alphabeta.txt, verdict.txt} — plus DIR/metrics.json when WithMetrics is
// on. A single-study campaign writes directly under DIR, matching the
// historical lokirun layout.
func (s *Session) writeRunArtifacts(res *SessionResult) error {
	if s.artifacts == "" || res == nil {
		return nil
	}
	var jobs []artifactJob
	single := res.Campaign != nil && len(res.Campaign.Studies) == 1
	res.eachStudy(func(name string, sr *StudyOutcome) {
		dir := s.artifacts
		if !single {
			dir = underDir(s.artifacts, name)
		}
		jobs = appendArtifactJobs(jobs, dir, sr)
	})
	if err := writeArtifactJobs(jobs); err != nil {
		return err
	}
	if err := s.writeMetricsSnapshot(); err != nil {
		return err
	}
	return s.writeReport(res)
}

// underDir joins a study/point name under base, confined: the name's "/"
// separators nest subdirectories (matrix point names are
// scenario/latency/seedN), but ".." segments or an absolute name cannot
// escape the artifact directory.
func underDir(base, name string) string {
	return filepath.Join(base, filepath.Clean("/"+name))
}

// artifactJobLen is the most records one artifactJob holds, so a study
// larger than a matrix point still spreads over every writer.
const artifactJobLen = 16

// artifactJob is a run of consecutive records of one study, whose
// per-experiment artifacts go under dir/expNNN; a record without a global
// timeline has none and is skipped.
type artifactJob struct {
	dir  string
	recs []*ExperimentRecord
}

// appendArtifactJobs adds one study's records, in jobs of at most
// artifactJobLen. The directory is cleaned first, as filepath.Join cleans
// the paths of the run's other files (metrics.json, report.html): the
// kernel would resolve a ".." in it after any symbolic link before it, and
// make the missing directories a ".." steps out of.
func appendArtifactJobs(jobs []artifactJob, dir string, sr *StudyOutcome) []artifactJob {
	dir = filepath.Clean(dir)
	for recs := sr.Records; len(recs) > 0; {
		n := min(len(recs), artifactJobLen)
		jobs, recs = append(jobs, artifactJob{dir, recs[:n]}), recs[n:]
	}
	return jobs
}

// writeArtifactJobs writes every job's artifacts from GOMAXPROCS
// goroutines, each with its own ArtifactWriter, and returns the first
// error in record order once all of them have finished. A goroutine claims
// a whole job and opens its directory once, at the job's first record with
// artifacts (obs.ArtifactWriter.OpenDir, which makes a missing one, so a
// study with none gets no directory), keeping it open while the jobs it
// claims next are of the same directory: a matrix point's records are one
// job, so two goroutines do not each open every point. Each file is then
// opened relative to the directory, by a name built in reused buffers, so
// a record whose files already hold their bytes allocates nothing. A job
// stops at its first error.
func writeArtifactJobs(jobs []artifactJob) error {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				w    obs.ArtifactWriter
				d    obs.ArtifactDir
				name []byte
			)
			defer d.Close() // read-only: its close loses nothing
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				job := &jobs[i]
				for _, rec := range job.recs {
					if rec == nil || rec.Global == nil {
						continue
					}
					if job.dir != d.Path() {
						d.Close()
						if d, errs[i] = w.OpenDir(job.dir); errs[i] != nil {
							break
						}
					}
					if name, errs[i] = writeExperimentArtifacts(&w, &d, name, rec); errs[i] != nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeExperimentArtifacts writes one record's global timeline, alphabeta
// bounds, and verdict under d/expNNN, building each file's name in name
// (returned for reuse). The experiment directory is made only when the
// first file cannot be opened for want of it, so a rewrite over an
// existing tree makes no directory.
func writeExperimentArtifacts(w *obs.ArtifactWriter, d *obs.ArtifactDir, name []byte, rec *ExperimentRecord) ([]byte, error) {
	name = appendExpName(name[:0], rec.Index)
	expDir := len(name)
	file := func(base string) []byte {
		name = append(append(name[:expDir], '/'), base...)
		return name
	}
	encodeGlobal := func(w io.Writer) error {
		return analysis.Encode(w, rec.Global)
	}
	err := w.WriteIn(d, file("global.timeline"), 0o666, encodeGlobal)
	if errors.Is(err, fs.ErrNotExist) {
		if err = w.Mkdir(d, name[:expDir], 0o755); err == nil {
			err = w.WriteIn(d, file("global.timeline"), 0o666, encodeGlobal)
		}
	}
	if err != nil {
		return name, err
	}
	err = w.WriteIn(d, file("alphabeta.txt"), 0o666, func(w io.Writer) error {
		return clocksync.EncodeAlphaBeta(w, rec.Global.Reference, rec.Bounds)
	})
	if err != nil {
		return name, err
	}
	return name, w.WriteIn(d, file("verdict.txt"), 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, rec.Verdict().String())
		if err == nil {
			_, err = io.WriteString(w, "\n")
		}
		return err
	})
}

// appendExpName appends a record's experiment directory name,
// fmt.Sprintf("exp%03d", index), to b; an index is never negative.
func appendExpName(b []byte, index int) []byte {
	b = append(b, "exp"...)
	for pad := 100; pad > index && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(index), 10)
}

// writeRawArtifacts emits RunOne's raw runtime artifacts — one §3.5.6
// timeline file per machine plus the timestamps file — for an analysed
// experiment; res is the run e came from.
func (s *Session) writeRawArtifacts(e *Experiment, res *SessionResult) error {
	if s.artifacts == "" {
		return nil
	}
	if v := e.Record.Verdict(); v != campaign.Rejected && v != campaign.Accepted {
		// No timelines to trust, but the run's metrics still happened.
		if err := s.writeMetricsSnapshot(); err != nil {
			return err
		}
		return s.writeReport(res)
	}
	if err := os.MkdirAll(s.artifacts, 0o755); err != nil {
		return err
	}
	for _, tl := range e.Locals {
		// Owner is outside input — a node file's nickname, or in cluster
		// mode whatever a peer's result frames said — so it is confined
		// like study and point names are.
		path := underDir(s.artifacts, tl.Owner+".timeline")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		err := obs.WriteArtifact(path, 0o666, func(w io.Writer) error {
			return timeline.Encode(w, tl)
		})
		if err != nil {
			return err
		}
	}
	err := obs.WriteArtifact(filepath.Join(s.artifacts, "timestamps.txt"), 0o666, func(w io.Writer) error {
		return clocksync.EncodeTimestamps(w, e.Stamps)
	})
	if err != nil {
		return err
	}
	if err := s.writeMetricsSnapshot(); err != nil {
		return err
	}
	return s.writeReport(res)
}
