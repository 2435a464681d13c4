package loki

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/clocksync"
	"repro/internal/config"
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
	c    *Campaign
	m    *Matrix
	file *CampaignFile

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

// Option configures a Session at Open.
type Option func(*Session) error

// WithWorkers overrides the concurrent experiment executor count
// (0 = GOMAXPROCS; negative is rejected).
func WithWorkers(n int) Option {
	return func(s *Session) error {
		if err := campaign.ValidateWorkers(n); err != nil {
			return err
		}
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
// *CampaignFile (parsed campaign file, validated here), or a string path
// to a campaign file. The spec is copied shallowly, so options never
// mutate the caller's value.
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
		cc, m, err := config.Build(v)
		if err != nil {
			return nil, err
		}
		s.c, s.m, s.file = cc, m, v
	case string:
		// Parse here and let Build run the single validation pass —
		// LoadFile would validate a second time for nothing.
		data, err := os.ReadFile(v)
		if err != nil {
			return nil, fmt.Errorf("loki: %w", err)
		}
		f, err := config.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("loki: %s: %w", v, err)
		}
		cc, m, err := config.Build(f)
		if err != nil {
			return nil, fmt.Errorf("loki: %s: %w", v, err)
		}
		s.c, s.m, s.file = cc, m, f
	case nil:
		return nil, fmt.Errorf("loki: Open(nil)")
	default:
		return nil, fmt.Errorf("loki: Open: unsupported spec type %T (want *Campaign, *CampaignFile, or a path)", spec)
	}
	// A campaign file's cluster section is deliberately NOT auto-adopted:
	// the schema promises in-process engines ignore it (a shared file
	// must stay runnable by lokirun), and only the driver knows which
	// peer this process is. cmd/lokid merges the section with its -name
	// flag and passes the result through WithCluster.
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.resolveTracing(); err != nil {
		return nil, err
	}
	if s.m == nil && len(s.c.Studies) == 0 {
		return nil, fmt.Errorf("loki: campaign has no studies and no matrix")
	}
	if s.m != nil && len(s.c.Studies) > 0 {
		return nil, fmt.Errorf("loki: campaign has both studies and a matrix; open two sessions")
	}
	// The engines' own up-front rules, on the campaign as it will run.
	if err := campaign.Validate(s.effectiveCampaign(), s.m); err != nil {
		return nil, err
	}
	if s.cluster != nil && s.m != nil {
		return nil, fmt.Errorf("loki: cluster mode runs a single study, not a matrix")
	}
	if s.cluster != nil && len(s.c.Studies) != 1 {
		return nil, fmt.Errorf("loki: cluster mode needs exactly one study, have %d", len(s.c.Studies))
	}
	// What only the session knows: a cluster's peers and a transport
	// override of matrix points (built at run time) are sockets too.
	if s.c.VirtualTime {
		if s.cluster != nil {
			return nil, fmt.Errorf("loki: virtual time cannot drive a cluster (peer processes keep real clocks)")
		}
		if s.transport != "" && s.transport != TransportInproc {
			return nil, fmt.Errorf("loki: virtual time requires the inproc transport, not %q", s.transport)
		}
	}
	return s, nil
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

// effectiveCampaign returns the campaign with the session's transport
// override applied — on copies, never on the opened studies.
func (s *Session) effectiveCampaign() *Campaign {
	if s.transport == "" {
		return s.c
	}
	cc := *s.c
	cc.Studies = make([]*Study, len(s.c.Studies))
	for i, st := range s.c.Studies {
		stc := *st
		stc.Transport = s.transport
		cc.Studies[i] = &stc
	}
	return &cc
}

// effectiveMatrix returns the matrix with the transport override applied
// to every built point study.
func (s *Session) effectiveMatrix() *Matrix {
	if s.m == nil || s.transport == "" {
		return s.m
	}
	mc := *s.m
	inner := s.m.Build
	kind := s.transport
	mc.Build = func(p MatrixPoint) (*Study, error) {
		st, err := inner(p)
		if err != nil {
			return nil, err
		}
		st.Transport = kind
		return st, nil
	}
	return &mc
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
		sr, err := s.runClustered(ctx, false)
		if err != nil {
			return nil, err
		}
		if sr == nil {
			return &SessionResult{Served: true}, nil
		}
		res.Campaign = &CampaignOutcome{Name: s.c.Name, Studies: []*StudyOutcome{sr}}
	} else if m := s.effectiveMatrix(); m != nil {
		out, err := campaign.RunMatrix(ctx, s.effectiveCampaign(), m)
		if err != nil {
			return nil, err
		}
		res.Matrix = out
	} else {
		out, err := campaign.Run(ctx, s.effectiveCampaign())
		if err != nil {
			return nil, err
		}
		res.Campaign = out
	}
	return res, s.writeRunArtifacts(res)
}

// RunOne is Run of exactly one experiment of the session's (first) study
// whose record keeps the raw runtime artifacts — the single-experiment
// mode of cmd/lokid. With WithArtifacts, the §3.5.6 timeline files and
// the timestamps file are written for a clean, analysis-accepted run.
func (s *Session) RunOne(ctx context.Context) (*Experiment, error) {
	if err := s.runnable(); err != nil {
		return nil, err
	}
	if s.m != nil {
		return nil, fmt.Errorf("loki: RunOne runs one experiment of a study campaign; this session has a matrix (use Run)")
	}
	var rec *ExperimentRecord
	if s.cluster != nil {
		sr, err := s.runClustered(ctx, true)
		if err != nil {
			return nil, err
		}
		if sr == nil {
			return &Experiment{Served: true}, nil
		}
		rec = sr.Records[0]
	} else {
		var err error
		if rec, err = campaign.RunSingle(ctx, s.effectiveCampaign()); err != nil {
			return nil, err
		}
	}
	e := &Experiment{Record: rec, Stamps: rec.Stamps, Locals: rec.Locals}
	return e, s.writeRawArtifacts(e)
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
func (s *Session) runClustered(ctx context.Context, one bool) (*StudyOutcome, error) {
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
	if cl.Name == "" {
		return fmt.Errorf("loki: cluster mode needs the local peer name")
	}
	peers := make(map[string]string, len(cl.Peers))
	for k, v := range cl.Peers {
		peers[k] = v
	}
	if cl.Listen != "" {
		peers[cl.Name] = cl.Listen
	}
	topo := TransportTopology{Local: cl.Name, Peers: peers, Hosts: cl.Owners}
	kind := cl.Kind
	if kind == "" {
		kind = TransportUDP
	}
	tr, err := transport.New(kind, topo, nil)
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
	// session's configuration: the campaign-level header matches and —
	// for studies campaigns — every journaled study's record fingerprint
	// matches too, so a Resume that would refuse is reported here. Matrix
	// sessions compare the header only (each point's fingerprint depends
	// on its materialized study; resume still verifies them per record).
	FingerprintMatch bool
	// Appending reports trailing journal bytes without a newline — a
	// writer mid-append, or a crash at that instant. The bytes are
	// ignored, not an error.
	Appending bool
	// Torn reports a garbled journal tail (damage, not a live append);
	// everything counted precedes it.
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
	expected, order, err := s.expectedPoints()
	if err != nil {
		return nil, err
	}
	observed := make(map[string]campaign.PointProgress, len(sum.Points))
	for _, p := range sum.Points {
		observed[p.Point] = p
	}
	ec := s.effectiveCampaign()
	match := sum.Fingerprint == campaign.ConfigFingerprint(ec)
	if match && s.m == nil {
		// The header hash covers only campaign-level configuration; the
		// per-study fingerprints resume actually enforces (transport,
		// faults, experiment count, ...) are cheap to check for studies
		// campaigns — do it, so "matches" here means Resume would accept.
		for _, study := range ec.Studies {
			o, ok := observed[study.Name]
			if ok && o.Fingerprint != campaign.StudyConfigFingerprint(ec, study, study.Name) {
				match = false
			}
		}
	}
	st := &SessionStatus{
		Dir:              dir,
		JournalPath:      sum.Path,
		Campaign:         sum.Campaign,
		Fingerprint:      sum.Fingerprint,
		FingerprintMatch: match,
		Appending:        sum.Appending,
		Torn:             sum.Torn,
	}
	for _, name := range order {
		o := observed[name]
		st.Points = append(st.Points, PointStatus{Point: name, Expected: expected[name], Complete: o.Complete, Accepted: o.Accepted})
	}
	// Journal-only points follow, in the summary's (sorted) order.
	for _, o := range sum.Points {
		if _, configured := expected[o.Point]; !configured {
			st.Points = append(st.Points, PointStatus{Point: o.Point, Complete: o.Complete, Accepted: o.Accepted})
		}
	}
	return st, nil
}

// expectedPoints enumerates the configured record namespaces and their
// experiment counts: study names, or matrix point names.
func (s *Session) expectedPoints() (map[string]int, []string, error) {
	expected := make(map[string]int)
	var order []string
	if s.m == nil {
		for _, st := range s.c.Studies {
			expected[st.Name] = st.Experiments
			order = append(order, st.Name)
		}
		return expected, order, nil
	}
	pts := s.m.Points()
	// Every point shares the experiment count of the one study template
	// (config files by construction; Go matrices by the Build contract),
	// so a status query over a ROADMAP-scale matrix materializes at most
	// one study instead of one per point.
	perPoint := 0
	switch {
	case s.file != nil && s.file.Matrix != nil && s.file.Matrix.Study != nil:
		perPoint = s.file.Matrix.Study.Experiments
	case s.m.Build != nil && len(pts) > 0:
		st, err := s.m.Build(pts[0])
		if err != nil {
			return nil, nil, fmt.Errorf("loki: status: materializing point %s: %w", pts[0].Name(), err)
		}
		perPoint = st.Experiments
	}
	for _, p := range pts {
		expected[p.Name()] = perPoint
		order = append(order, p.Name())
	}
	return expected, order, nil
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
	if res.Campaign != nil {
		single := len(res.Campaign.Studies) == 1
		for _, sr := range res.Campaign.Studies {
			dir := s.artifacts
			if !single {
				dir = underDir(s.artifacts, sr.Name)
			}
			if err := writeStudyArtifacts(dir, sr); err != nil {
				return err
			}
		}
	}
	if res.Matrix != nil {
		for _, pr := range res.Matrix.Points {
			if pr == nil || pr.Study == nil {
				continue
			}
			if err := writeStudyArtifacts(underDir(s.artifacts, pr.Point.Name()), pr.Study); err != nil {
				return err
			}
		}
	}
	if err := s.writeMetricsSnapshot(); err != nil {
		return err
	}
	return s.writeReport()
}

// underDir joins a study/point name under base, confined: the name's "/"
// separators nest subdirectories (matrix point names are
// scenario/latency/seedN), but ".." segments or an absolute name cannot
// escape the artifact directory.
func underDir(base, name string) string {
	return filepath.Join(base, filepath.Clean("/"+name))
}

// writeStudyArtifacts writes one study's per-experiment artifacts.
func writeStudyArtifacts(dir string, sr *StudyOutcome) error {
	for _, rec := range sr.Records {
		if rec == nil || rec.Global == nil {
			continue
		}
		if err := writeExperimentArtifacts(dir, rec); err != nil {
			return err
		}
	}
	return nil
}

// writeExperimentArtifacts writes one record's global timeline, alphabeta
// bounds, and verdict under dir/expNNN.
func writeExperimentArtifacts(dir string, rec *ExperimentRecord) error {
	expDir := filepath.Join(dir, fmt.Sprintf("exp%03d", rec.Index))
	if err := os.MkdirAll(expDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(expDir, "global.timeline"))
	if err != nil {
		return err
	}
	if err := analysis.Encode(f, rec.Global); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(filepath.Join(expDir, "alphabeta.txt"))
	if err != nil {
		return err
	}
	if err := clocksync.EncodeAlphaBeta(f, rec.Global.Reference, rec.Bounds); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	verdict := "rejected"
	if rec.Accepted {
		verdict = "accepted"
	}
	return os.WriteFile(filepath.Join(expDir, "verdict.txt"), []byte(verdict+"\n"), 0o644)
}

// writeRawArtifacts emits RunOne's raw runtime artifacts — one §3.5.6
// timeline file per machine plus the timestamps file — for a clean,
// analysis-processable experiment.
func (s *Session) writeRawArtifacts(e *Experiment) error {
	if s.artifacts == "" {
		return nil
	}
	if e.Record == nil || !e.Record.Completed || e.Record.AnalysisError != "" {
		// No timelines to trust, but the run's metrics still happened.
		if err := s.writeMetricsSnapshot(); err != nil {
			return err
		}
		return s.writeReport()
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
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := timeline.Encode(f, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(s.artifacts, "timestamps.txt"))
	if err != nil {
		return err
	}
	if err := clocksync.EncodeTimestamps(f, e.Stamps); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.writeMetricsSnapshot(); err != nil {
		return err
	}
	return s.writeReport()
}
