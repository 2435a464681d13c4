package loki_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	loki "repro"
	"repro/app"
	"repro/apps/election"
)

// parityConfigDoc builds the campaign-file side of the parity test: an
// election matrix of {baseline, netsplit} x seeds over three hosts,
// optionally forcing every point study onto a socket transport.
func parityConfigDoc(transport string, seeds []int64, experiments int) []byte {
	type m = map[string]any
	seedsAny := make([]any, len(seeds))
	for i, s := range seeds {
		seedsAny[i] = s
	}
	doc := m{
		"name": "parity",
		"hosts": []any{
			m{"name": "h1"},
			m{"name": "h2", "offset_ns": 5e6, "drift_ppm": 80},
			m{"name": "h3", "offset_ns": -2e6, "drift_ppm": -45},
		},
		"sync":      m{"messages": 10, "transit": "25µs"},
		"transport": transport,
		"matrix": m{
			"name": "parity",
			"scenarios": []any{
				m{"name": "baseline"},
				// Every machine enters its own ELECT state at startup, so
				// the injection set is deterministic (a LEAD-triggered
				// fault would fire only on the timing-dependent winner),
				// and self-atoms are provably correct under any clocks.
				m{"name": "slowstart", "faults": []any{
					"black bslow (black:ELECT) once delay(h1,*,1ms) 20ms",
					"green gslow (green:ELECT) once delay(h2,*,1ms) 20ms",
					"yellow yslow (yellow:ELECT) once delay(h3,*,1ms) 20ms",
				}},
			},
			"seeds": seedsAny,
			"study": m{
				"name": "", "app": "election",
				"nodes": []any{
					m{"name": "black", "host": "h1"},
					m{"name": "green", "host": "h2"},
					m{"name": "yellow", "host": "h3"},
				},
				"experiments": experiments,
				"runfor":      "80ms",
				"timeout":     "10s",
			},
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}

// programmaticParityMatrix hand-wires, in Go, exactly what
// parityConfigDoc declares.
func programmaticParityMatrix(t *testing.T, transport string, seeds []int64, experiments int) (*loki.Campaign, *loki.Matrix) {
	t.Helper()
	peers := []string{"black", "green", "yellow"}
	hosts := []string{"h1", "h2", "h3"}
	faults, err := loki.ParseScenarioFaults(`
black bslow (black:ELECT) once delay(h1,*,1ms) 20ms
green gslow (green:ELECT) once delay(h2,*,1ms) 20ms
yellow yslow (yellow:ELECT) once delay(h3,*,1ms) 20ms
`)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []loki.NodeDef
	var placement []loki.NodeEntry
	for i, nick := range peers {
		nodes = append(nodes, loki.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, peers)})
		placement = append(placement, loki.NodeEntry{Nickname: nick, Host: hosts[i]})
	}
	m := &loki.Matrix{
		Name: "parity",
		Scenarios: []loki.Scenario{
			{Name: "baseline"},
			{Name: "slowstart", Faults: faults},
		},
		Seeds: seeds,
		Study: &loki.Study{
			Nodes:       nodes,
			Placement:   placement,
			Experiments: experiments,
			Timeout:     10 * time.Second,
			Transport:   transport,
			NewApp: func(p loki.MatrixPoint, nick string) (app.App, error) {
				// The same construction internal/config performs: the
				// point seed drives the application, offset per machine.
				return election.New(election.Config{
					Peers:  peers,
					RunFor: 80 * time.Millisecond,
					Seed:   p.Seed + int64(slices.Index(peers, nick))*17,
				}), nil
			},
		},
	}
	c := &loki.Campaign{
		Name: "parity",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 5e6, DriftPPM: 80}},
			{Name: "h3", Clock: loki.ClockConfig{Offset: -2e6, DriftPPM: -45}},
		},
		Sync: loki.SyncConfig{Messages: 10, Transit: 25 * time.Microsecond},
	}
	return c, m
}

// canonRecord serializes everything deterministic about a record — the
// analysis decisions and runtime outcomes — as comparison bytes. Raw clock
// readings (bounds, event timestamps, injection instants) come from live
// clocks and legitimately differ between two executions, so they are
// excluded; everything the pipeline *decides* must be byte-identical.
func canonRecord(rec *loki.ExperimentRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "study=%s index=%d completed=%v accepted=%v analysisError=%q clockStep=%v hosts=%v\n",
		rec.Study, rec.Index, rec.Completed, rec.Accepted, rec.AnalysisError,
		rec.ClockStepSuspected, rec.ClockStepHosts)
	if rec.Outcomes != nil {
		keys := make([]string, 0, len(rec.Outcomes))
		for k := range rec.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "outcome %s=%s\n", k, rec.Outcomes[k])
		}
	}
	if rec.Report != nil {
		// Injections project onto the global timeline in reference-time
		// order, and cross-machine interleaving legitimately varies with
		// live clocks (matrix_test's canonGlobal makes the same call):
		// compare the set, sorted, not the interleaving.
		var inj []string
		for _, chk := range rec.Report.Injections {
			inj = append(inj, fmt.Sprintf("injection %s/%s correct=%v\n", chk.Machine, chk.Fault, chk.Correct))
		}
		sort.Strings(inj)
		for _, line := range inj {
			b.WriteString(line)
		}
		miss := append([]string(nil), rec.Report.MissingFaults...)
		sort.Strings(miss)
		for _, m := range miss {
			fmt.Fprintf(&b, "missing %s\n", m)
		}
	}
	return b.String()
}

func canonMatrix(t *testing.T, out *loki.MatrixOutcome) string {
	t.Helper()
	var b strings.Builder
	for _, pr := range out.Points {
		if pr == nil || pr.Study == nil {
			t.Fatal("missing point result")
		}
		fmt.Fprintf(&b, "== point %s ==\n", pr.Point.Name())
		for _, rec := range pr.Study.Records {
			if rec == nil {
				t.Fatalf("point %s: missing record", pr.Point.Name())
			}
			b.WriteString(canonRecord(rec))
		}
	}
	return b.String()
}

// TestSessionParityMatrix proves a campaign file and programmatic
// construction (Open(c, WithMatrix(m))) are two front doors to one engine:
// the same matrix produces byte-identical canonical records — acceptance,
// outcomes, injection verdicts, analysis errors — in-process and over UDP
// loopback. Run under -race in CI.
func TestSessionParityMatrix(t *testing.T) {
	runMatrix := func(t *testing.T, spec any, opts ...loki.Option) *loki.MatrixOutcome {
		t.Helper()
		s, err := loki.Open(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Matrix == nil {
			t.Fatal("session run returned no matrix result")
		}
		return res.Matrix
	}
	run := func(t *testing.T, transport string, seeds []int64, experiments int) {
		cfg, err := loki.ParseCampaignFile(parityConfigDoc(transport, seeds, experiments))
		if err != nil {
			t.Fatal(err)
		}
		fromFile := runMatrix(t, cfg)
		c, m := programmaticParityMatrix(t, transport, seeds, experiments)
		fromGo := runMatrix(t, c, loki.WithMatrix(m))

		got, want := canonMatrix(t, fromFile), canonMatrix(t, fromGo)
		if got != want {
			t.Errorf("campaign-file and programmatic records differ:\n--- file ---\n%s\n--- programmatic ---\n%s", got, want)
		}
		if accepted, total := fromFile.AcceptedTotal(); accepted == 0 || total == 0 {
			t.Errorf("parity is vacuous: accepted %d/%d", accepted, total)
		}
	}
	t.Run("inproc", func(t *testing.T) { run(t, "", []int64{1, 2}, 3) })
	t.Run("udp", func(t *testing.T) { run(t, loki.TransportUDP, []int64{1}, 2) })
}

// electionApps builds the election of peers, running for runFor, machine
// i seeded 7i.
func electionApps(peers []string, runFor time.Duration) func(loki.MatrixPoint, string) (app.App, error) {
	return func(_ loki.MatrixPoint, nick string) (app.App, error) {
		return election.New(election.Config{Peers: peers, RunFor: runFor, Seed: int64(slices.Index(peers, nick)) * 7}), nil
	}
}

// sessionCancelCampaign is a slow-ish election campaign for cancellation
// tests: enough experiments that a mid-run cancel leaves work undone.
func sessionCancelCampaign(experiments int, dir string) *loki.Campaign {
	peers := []string{"black", "green", "yellow"}
	hosts := []string{"h1", "h2", "h3"}
	var nodes []loki.NodeDef
	var placement []loki.NodeEntry
	for i, nick := range peers {
		nodes = append(nodes, loki.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, peers)})
		placement = append(placement, loki.NodeEntry{Nickname: nick, Host: hosts[i]})
	}
	c := &loki.Campaign{
		Name:    "cancel",
		Hosts:   []loki.HostDef{{Name: "h1"}, {Name: "h2"}, {Name: "h3"}},
		Workers: 1,
		Studies: []*loki.Study{{
			Name: "s", Nodes: nodes, Placement: placement,
			NewApp:      electionApps(peers, 60*time.Millisecond),
			Experiments: experiments, Timeout: 10 * time.Second,
		}},
		Sync: loki.SyncConfig{Messages: 6, Transit: 10 * time.Microsecond},
	}
	if dir != "" {
		c.Checkpoint = &loki.Checkpoint{Dir: dir}
	}
	return c
}

// TestSessionCancelAndResume: cancelling ctx mid-campaign returns
// context.Canceled without losing journaled progress; Resume finishes only
// the missing experiments.
func TestSessionCancelAndResume(t *testing.T) {
	dir := t.TempDir()
	const experiments = 8

	s, err := loki.Open(sessionCancelCampaign(experiments, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// One experiment takes >=60ms of app run time plus two sync
		// phases; cancel while the campaign is mid-flight.
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v, want context.Canceled", err)
	}

	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	_, complete, _ := st.Totals()
	if complete >= experiments {
		t.Fatalf("cancellation did not interrupt: %d/%d complete", complete, experiments)
	}

	// Resume on a fresh session over the same spec: only the missing
	// experiments run, and the full record set comes back.
	s2, err := loki.Open(sessionCancelCampaign(experiments, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Campaign.Study("s")
	if len(sr.Records) != experiments {
		t.Fatalf("resumed records = %d, want %d", len(sr.Records), experiments)
	}
	for i, rec := range sr.Records {
		if rec == nil || rec.Index != i {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	st2, err := s2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if _, complete, _ := st2.Totals(); complete != experiments {
		t.Fatalf("post-resume complete = %d, want %d", complete, experiments)
	}
	if !st2.FingerprintMatch {
		t.Error("same configuration reported a fingerprint mismatch")
	}
}

// TestSessionStatusCountsAcceptance: Status reports expected vs complete
// vs accepted per study without running anything.
func TestSessionStatusCountsAcceptance(t *testing.T) {
	dir := t.TempDir()
	c := sessionCancelCampaign(2, dir)
	s, err := loki.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != 1 || st.Points[0].Point != "s" {
		t.Fatalf("points = %+v", st.Points)
	}
	p := st.Points[0]
	if p.Expected != 2 || p.Complete != 2 || p.Missing() != 0 {
		t.Errorf("progress = %+v", p)
	}
	if p.Accepted != 2 || st.AcceptRate() != 1 {
		t.Errorf("acceptance: %+v rate %v (fault-free deterministic walk should fully accept)", p, st.AcceptRate())
	}
	if st.Torn {
		t.Error("clean journal reported torn")
	}
}

// TestSessionStatusDetectsStudyLevelMismatch: the campaign-level header
// hash excludes per-study configuration (transport, faults); Status must
// still report a mismatch Resume would refuse.
func TestSessionStatusDetectsStudyLevelMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := loki.Open(sessionCancelCampaign(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same campaign, different study transport: header matches, study
	// fingerprint must not.
	s2, err := loki.Open(sessionCancelCampaign(1, dir), loki.WithTransport(loki.TransportTCP), loki.WithCheckpoint(dir, true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.FingerprintMatch {
		t.Error("transport change not reflected in FingerprintMatch (resume would refuse these records)")
	}
}

// TestSessionStatusDetectsMatrixPointMismatch: a changed scenario fault
// leaves a matrix journal's header as it was but changes the fingerprint
// of that scenario's points, whose records Resume then refuses; Status
// must report the mismatch too, and report none for the unchanged file.
func TestSessionStatusDetectsMatrixPointMismatch(t *testing.T) {
	dir := t.TempDir()
	doc := parityConfigDoc("", []int64{1}, 1)
	open := func(doc []byte) *loki.Session {
		t.Helper()
		cfg, err := loki.ParseCampaignFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := loki.Open(cfg, loki.WithCheckpoint(dir, true))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	status := func(doc []byte) (*loki.Session, *loki.SessionStatus) {
		t.Helper()
		s := open(doc)
		st, err := s.Status()
		if err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	if _, err := open(doc).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, st := status(doc); !st.FingerprintMatch {
		t.Error("the configuration that wrote the journal reported a fingerprint mismatch")
	}
	changed := bytes.Replace(doc, []byte("delay(h1,*,1ms) 20ms"), []byte("delay(h1,*,1ms) 30ms"), 1)
	if bytes.Equal(changed, doc) {
		t.Fatal("the scenario fault to change is missing from the campaign file")
	}
	s, st := status(changed)
	if st.FingerprintMatch {
		t.Error("a changed scenario fault not reflected in FingerprintMatch")
	}
	if _, err := s.Resume(context.Background()); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("Resume over the changed scenario: %v; want a fingerprint refusal", err)
	}
}

// TestSessionValidation: the up-front count validation surfaces through
// Open with clear errors instead of silent clamping.
func TestSessionValidation(t *testing.T) {
	c := sessionCancelCampaign(2, "")
	c.Workers = -1
	if _, err := loki.Open(c); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative workers: %v", err)
	}

	c = sessionCancelCampaign(2, "")
	c.Studies[0].Experiments = 0
	if _, err := loki.Open(c); err == nil || !strings.Contains(err.Error(), "Experiments") {
		t.Errorf("zero experiments: %v", err)
	}

	if _, err := loki.Open(42); err == nil {
		t.Error("Open(42) accepted")
	}
	if _, err := loki.Open(nil); err == nil {
		t.Error("Open(nil) accepted")
	}
}

// TestWithTransportEmptyIsNoOp: an empty kind must leave the spec's
// transports alone — not downgrade socket studies to inproc.
func TestWithTransportEmptyIsNoOp(t *testing.T) {
	c := sessionCancelCampaign(1, "")
	c.Studies[0].Transport = loki.TransportUDP
	s, err := loki.Open(c, loki.WithTransport(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The study must have actually run clustered; a silent inproc
	// downgrade would still produce records, so assert on the spec the
	// engine saw rather than the outcome shape.
	if got := len(res.Campaign.Study("s").Records); got != 1 {
		t.Fatalf("records = %d", got)
	}
	if c.Studies[0].Transport != loki.TransportUDP {
		t.Errorf("spec transport rewritten to %q", c.Studies[0].Transport)
	}
}

// TestRunOneRejectsMatrix: RunOne on a matrix session must say so, not
// leak the engine's "need hosts and a study" misdirection.
func TestRunOneRejectsMatrix(t *testing.T) {
	c, m := programmaticParityMatrix(t, "", []int64{1}, 1)
	s, err := loki.Open(c, loki.WithMatrix(m))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunOne(context.Background()); err == nil || !strings.Contains(err.Error(), "matrix") {
		t.Errorf("RunOne on matrix session: %v", err)
	}
}

// TestRunOneConfinesTimelineFiles: a machine nickname is outside input (a
// node file, a campaign file, a peer's result frames), so one that climbs
// out of the artifact directory must not take its timeline file along.
func TestRunOneConfinesTimelineFiles(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "deep", "er", "out")
	peers := []string{"../../escaped", "green", "yellow"}
	c := sessionCancelCampaign(1, "")
	c.Studies[0].Nodes, c.Studies[0].Placement = nil, nil
	for i, nick := range peers {
		c.Studies[0].Nodes = append(c.Studies[0].Nodes, loki.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, peers)})
		c.Studies[0].Placement = append(c.Studies[0].Placement, loki.NodeEntry{Nickname: nick, Host: c.Hosts[i].Name})
	}
	c.Studies[0].NewApp = electionApps(peers, 30*time.Millisecond)
	s, err := loki.Open(c, loki.WithArtifacts(out))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, err := s.RunOne(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !e.Record.Completed || e.Record.AnalysisError != "" || len(e.Locals) != len(peers) {
		t.Fatalf("experiment: completed=%v error=%q locals=%d", e.Record.Completed, e.Record.AnalysisError, len(e.Locals))
	}
	if _, err := os.Stat(filepath.Join(out, "escaped.timeline")); err != nil {
		t.Errorf("the confined timeline file is missing: %v", err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(path, out+string(filepath.Separator)) {
			t.Errorf("file written outside the artifact directory: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionIgnoresFileClusterSectionInProcess: a campaign file that
// carries a cluster section (shared by every lokirun -name peer) must stay
// runnable in-process — the section binds only through WithCluster.
func TestSessionIgnoresFileClusterSectionInProcess(t *testing.T) {
	doc := []byte(`{
  "name": "cl",
  "hosts": [{"name": "h1"}],
  "cluster": {"kind": "udp",
    "peers": {"alpha": "127.0.0.1:7101", "beta": "127.0.0.1:7102"},
    "owners": {"h1": "alpha"}},
  "studies": [{"name": "s", "app": "election", "experiments": 1,
    "nodes": [{"name": "m0", "host": "h1"}], "runfor": "30ms"}]
}`)
	cfg, err := loki.ParseCampaignFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loki.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("in-process run of a cluster-carrying file: %v", err)
	}
	if res.Served || res.Campaign == nil || len(res.Campaign.Study("s").Records) != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// TestSessionResumeDoesNotMutateSpec: Resume flips the session's own
// checkpoint copy, never the caller's — and only for the call: a Run after
// a Resume journals from scratch, as WithCheckpoint(dir, false) (here the
// spec's Checkpoint without Resume) said it would.
func TestSessionResumeDoesNotMutateSpec(t *testing.T) {
	dir := t.TempDir()
	c := sessionCancelCampaign(1, dir)
	var executed atomic.Int64
	s, err := loki.Open(c, loki.WithObserver(func(ev loki.ProgressEvent) {
		if ev.Kind == loki.EventExperiment {
			executed.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Checkpoint.Resume {
		t.Error("Resume mutated the caller's Checkpoint")
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("Resume over an empty journal executed %d experiments, want 1", got)
	}
	if _, err := s.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("second Resume executed %d experiments in all, want 1 (the record is journaled)", got)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("Run after Resume executed %d experiments in all, want 2: it resumed instead of journaling from scratch", got)
	}
}

// TestSessionTransportOverrideDoesNotMutateSpec: WithTransport must leave
// the caller's campaign untouched.
func TestSessionTransportOverrideDoesNotMutateSpec(t *testing.T) {
	c := sessionCancelCampaign(1, "")
	s, err := loki.Open(c, loki.WithTransport(loki.TransportUDP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Studies[0].Transport != "" {
		t.Errorf("caller's study transport mutated to %q", c.Studies[0].Transport)
	}
}

// freeUDPAddr reserves a loopback UDP port by binding it and closing the
// socket again, and returns its address.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}

// TestSessionClusterRunsWholeStudy: two sessions in one process, each
// joined WithCluster over UDP loopback, run a three-experiment study
// through Run. The peer owning h1 coordinates and returns every record;
// the other serves and returns Served; the coordinator's journal reads
// complete.
func TestSessionClusterRunsWholeStudy(t *testing.T) {
	dir := t.TempDir()
	peers := map[string]string{"alpha": freeUDPAddr(t), "beta": freeUDPAddr(t)}
	owners := map[string]string{"h1": "alpha", "h2": "beta", "h3": "beta"}
	open := func(name, dir string) *loki.Session {
		s, err := loki.Open(sessionCancelCampaign(3, dir),
			loki.WithCluster(loki.ClusterConfig{Kind: loki.TransportUDP, Name: name, Peers: peers, Owners: owners}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	coord, member := open("alpha", dir), open("beta", "")
	for s, want := range map[*loki.Session]bool{coord: true, member: false} {
		if got, err := s.ClusterCoordinator(); err != nil || got != want {
			t.Fatalf("ClusterCoordinator() = %v, %v; want %v", got, err, want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type result struct {
		res *loki.SessionResult
		err error
	}
	served := make(chan result, 1)
	go func() {
		res, err := member.Run(ctx)
		served <- result{res, err}
	}()
	res, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if m := <-served; m.err != nil || m.res == nil || !m.res.Served {
		t.Fatalf("member: result %+v, error %v; want Served", m.res, m.err)
	}
	if res.Served || res.Campaign == nil || len(res.Campaign.Study("s").Records) != 3 {
		t.Fatalf("coordinator result %+v: want the study's 3 records", res)
	}
	st, err := coord.Status()
	if err != nil {
		t.Fatal(err)
	}
	if expected, complete, _ := st.Totals(); expected != 3 || complete != 3 {
		t.Errorf("Status() reads %d/%d complete, want 3/3", complete, expected)
	}
}

// TestClusteredJournalNamesItsTransport: a journal two WithCluster sessions
// write over UDP carries the UDP study's fingerprint. An in-process
// session over the same directory reads it as another configuration and
// refuses to resume it; an in-process session over UDP reads it as its
// own; two clustered sessions resume it with nothing re-run.
func TestClusteredJournalNamesItsTransport(t *testing.T) {
	dir := t.TempDir()
	owners := map[string]string{"h1": "alpha", "h2": "beta", "h3": "beta"}
	var executed atomic.Int64
	cluster := func(resume bool) {
		t.Helper()
		peers := map[string]string{"alpha": freeUDPAddr(t), "beta": freeUDPAddr(t)}
		open := func(name, dir string) *loki.Session {
			s, err := loki.Open(sessionCancelCampaign(3, dir),
				loki.WithCluster(loki.ClusterConfig{Kind: loki.TransportUDP, Name: name, Peers: peers, Owners: owners}),
				loki.WithObserver(func(ev loki.ProgressEvent) {
					if ev.Kind == loki.EventExperiment {
						executed.Add(1)
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		coord, member := open("alpha", dir), open("beta", "")
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		served := make(chan error, 1)
		go func() {
			_, err := member.Run(ctx)
			served <- err
		}()
		run := coord.Run
		if resume {
			run = coord.Resume
		}
		res, err := run(ctx)
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		if err := <-served; err != nil {
			t.Fatalf("member: %v", err)
		}
		if res.Campaign == nil || len(res.Campaign.Study("s").Records) != 3 {
			t.Fatalf("coordinator result %+v: want the study's 3 records", res)
		}
	}
	cluster(false)
	if n := executed.Load(); n != 3 {
		t.Fatalf("the clustered run executed %d experiments, want 3", n)
	}

	for _, tc := range []struct {
		name  string
		opts  []loki.Option
		match bool
	}{
		{"in-process", nil, false},
		{"in-process over udp", []loki.Option{loki.WithTransport(loki.TransportUDP)}, true},
	} {
		s, err := loki.Open(sessionCancelCampaign(3, dir), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st, err := s.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.FingerprintMatch != tc.match {
			t.Errorf("%s: Status().FingerprintMatch = %v, want %v", tc.name, st.FingerprintMatch, tc.match)
		}
		if !tc.match {
			if _, err := s.Resume(context.Background()); err == nil || !strings.Contains(err.Error(), "different study configuration") {
				t.Errorf("%s: Resume of the clustered journal: %v, want a fingerprint refusal", tc.name, err)
			}
		}
	}

	cluster(true)
	if n := executed.Load(); n != 3 {
		t.Errorf("the clustered resume re-ran %d experiments, want 0", n-3)
	}
}
