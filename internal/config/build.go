package config

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/app"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/vclock"

	// The built-in application zoo registers itself with the app registry
	// at init time; blank-importing it here keeps every config.Build entry
	// point (lokirun, examples, tests) able to resolve the built-in
	// names without its own imports. User applications add themselves the
	// same way: register in an init and link the package into the binary.
	_ "repro/apps/election"
	_ "repro/apps/quorum"
	_ "repro/apps/replica"
)

// appName normalizes the schema's app field ("" means election).
func appName(name string) string {
	if name == "" {
		return "election"
	}
	return name
}

// Build translates a campaign file into the engine types: the campaign
// itself and, when the file declares one, the scenario matrix. It checks
// only what the file alone can show (checkFile) and parses each fault line
// once, checking the machine it names; every rule about the campaign the
// engines run is campaign.Validate's, which the engines and loki.Open
// apply to the result. The studies are descriptions: their NewApp builds
// fresh application instances for every testbed that opens.
func Build(c *Campaign) (*campaign.Campaign, *campaign.Matrix, error) {
	if err := checkFile(c); err != nil {
		return nil, nil, err
	}
	cc := &campaign.Campaign{
		Name:        c.Name,
		Hosts:       buildHosts(c),
		Workers:     c.Workers,
		VirtualTime: c.VirtualTime,
	}
	if c.Sync != nil {
		cc.Sync = campaign.SyncConfig{
			Messages: c.Sync.Messages,
			Spacing:  c.Sync.Spacing.Std(),
			Transit:  c.Sync.Transit.Std(),
		}
	}
	if c.Checkpoint != nil {
		cc.Checkpoint = &campaign.Checkpoint{Dir: c.Checkpoint.Dir, Resume: c.Checkpoint.Resume}
	}
	for i := range c.Studies {
		s := &c.Studies[i]
		faults, err := parseFaults(s.Faults, nodeSet(s.Nodes), studyWhat(s))
		if err != nil {
			return nil, nil, err
		}
		cc.Studies = append(cc.Studies, buildStudy(c, s, faults))
	}
	if c.Matrix == nil {
		return cc, nil, nil
	}

	m := c.Matrix
	cm := &campaign.Matrix{
		Name:  m.Name,
		Seeds: append([]int64(nil), m.Seeds...),
	}
	for _, sc := range m.Scenarios {
		faults, err := parseFaults(sc.Faults, nodeSet(m.Study.Nodes), fmt.Sprintf("scenario %q", sc.Name))
		if err != nil {
			return nil, nil, err
		}
		cm.Scenarios = append(cm.Scenarios, campaign.Scenario{Name: sc.Name, Faults: faults})
	}
	for _, lp := range m.Latencies {
		cm.Latencies = append(cm.Latencies, campaign.LatencyProfile{
			Name: lp.Name, Local: lp.Local.Std(), Remote: lp.Remote.Std(),
		})
	}
	faults, err := parseFaults(m.Study.Faults, nodeSet(m.Study.Nodes), studyWhat(m.Study))
	if err != nil {
		return nil, nil, err
	}
	cm.Study = buildStudy(c, m.Study, faults)
	return cc, cm, nil
}

// studySeed resolves a study's effective seed: its own, or the campaign's.
func studySeed(c *Campaign, s *Study) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return c.Seed
}

// buildHosts returns the campaign's virtual hosts: the explicit list, or
// one host per placement host derived from the campaign seed.
func buildHosts(c *Campaign) []campaign.HostDef {
	if len(c.Hosts) > 0 {
		out := make([]campaign.HostDef, len(c.Hosts))
		for i, h := range c.Hosts {
			out[i] = campaign.HostDef{Name: h.Name, Clock: vclock.ClockConfig{
				Offset:      vclock.Ticks(h.OffsetNs),
				DriftPPM:    h.DriftPPM,
				Granularity: vclock.Ticks(h.GranularityNs),
				Jitter:      vclock.Ticks(h.JitterNs),
				Seed:        h.JitterSeed,
			}}
		}
		return out
	}
	var entries []spec.NodeEntry
	seen := map[string]bool{}
	add := func(nodes []Node) {
		for _, n := range nodes {
			if n.Host == "" || seen[n.Host] {
				continue
			}
			seen[n.Host] = true
			entries = append(entries, spec.NodeEntry{Nickname: n.Name, Host: n.Host})
		}
	}
	for _, s := range c.Studies {
		add(s.Nodes)
	}
	if c.Matrix != nil && c.Matrix.Study != nil {
		add(c.Matrix.Study.Nodes)
	}
	return HostsFor(entries, c.Seed)
}

// HostsFor invents one virtual host per placement host named in nodes,
// giving each a hidden clock error drawn from seed (offset within ±10 ms,
// drift within ±100 ppm) — the testbed stand-in for real machines'
// uncalibrated clocks. The first host keeps a clean reference clock.
func HostsFor(nodes []spec.NodeEntry, seed int64) []campaign.HostDef {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []campaign.HostDef
	for _, n := range nodes {
		if n.Host == "" || seen[n.Host] {
			continue
		}
		seen[n.Host] = true
		cfg := vclock.ClockConfig{
			Offset:   vclock.Ticks(rng.Int63n(20e6)) - 10e6,
			DriftPPM: float64(rng.Intn(200) - 100),
		}
		if len(out) == 0 {
			cfg = vclock.ClockConfig{} // reference host keeps a clean clock
		}
		out = append(out, campaign.HostDef{Name: n.Host, Clock: cfg})
	}
	return out
}

// buildStudy describes one study (or matrix template) with its parsed
// fault lines: state machines (the registered application's Spec, checked
// by checkFile), fault entries, placement, and a NewApp that builds the
// application's body (its New) for a point with crash probes for faults
// without a built-in action call — the study's own and the point's
// scenario's, whose specs the matrix engine appends (Scenario.ApplyTo)
// but whose probes it knows nothing about. The schema promises action-less
// fault lines crash wherever they appear. Describing a study builds no
// application; only a testbed that runs a node calls NewApp for it.
func buildStudy(c *Campaign, s *Study, faults []campaign.ScenarioFault) *campaign.Study {
	peers := make([]string, len(s.Nodes))
	placement := make([]spec.NodeEntry, len(s.Nodes))
	for i, n := range s.Nodes {
		peers[i] = n.Name
		placement[i] = spec.NodeEntry{Nickname: n.Name, Host: n.Host}
	}
	runFor := s.RunFor.Std()
	if runFor <= 0 {
		runFor = 150 * time.Millisecond
	}
	timeout := s.Timeout.Std()
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	a, _ := app.Lookup(appName(s.App))
	dormancy := s.Dormancy.Std()
	seed := studySeed(c, s)

	defs := make([]core.NodeDef, len(peers))
	for i, nick := range peers {
		defs[i] = core.NodeDef{Nickname: nick, Spec: a.Spec(nick, peers)}
	}
	for _, f := range faults { // each names a node (parseFaults)
		i := slices.Index(peers, f.Machine)
		defs[i].Faults = append(defs[i].Faults, f.Spec)
	}
	st := &campaign.Study{
		Name:        s.Name,
		Nodes:       defs,
		Placement:   placement,
		Experiments: s.Experiments,
		Timeout:     timeout,
		// Built-in chaos actions' randomness follows the study seed like
		// everything else.
		ChaosSeed: seed,
		Transport: studyTransport(c, s),
		NewApp: func(p campaign.Point, nick string) (core.App, error) {
			i := slices.Index(peers, nick)
			if i < 0 {
				return nil, fmt.Errorf("config: no machine %q", nick)
			}
			// The per-machine seed stride predates the registry; the golden
			// parity journals depend on it (parity-tested), so it stays.
			in := a.New(app.Params{Nick: nick, Peers: peers, RunFor: runFor, Seed: p.Seed + int64(i)*17})
			registerCrashProbes(p.Scenario.Faults, nick, in, dormancy, p.Seed)
			registerCrashProbes(faults, nick, in, dormancy, p.Seed)
			return in, nil
		},
	}
	if s.Restart {
		st.Restarts = &campaign.RestartPolicy{After: 5 * time.Millisecond, MaxPerNode: 1}
	}
	return st
}

// registerCrashProbes registers a crash probe on in for each of nick's
// fault entries: immediate, or dormancy-delayed with jitter dormancy/5
// (§1.1). Faults naming a built-in chaos action are executed by the
// attached chaos engine instead, so their probe registration is inert.
func registerCrashProbes(faults []campaign.ScenarioFault, nick string, in *probe.Instrumented, dormancy time.Duration, seed int64) {
	for _, f := range faults {
		if f.Machine != nick {
			continue
		}
		if dormancy > 0 {
			in.On(f.Spec.Name, probe.DelayedCrashFault(dormancy, dormancy/5, seed))
		} else {
			in.On(f.Spec.Name, probe.CrashFault())
		}
	}
}

// studyTransport resolves a study's transport: its own, or the campaign
// default.
func studyTransport(c *Campaign, s *Study) string {
	if s.Transport != "" {
		return s.Transport
	}
	return c.Transport
}

// BuildMeasures compiles the file's declarative measures, parsing each
// triple once (measure.ParseTriple). Observation functions beyond the
// parseable language (custom Go callbacks) stay in Go — the schema covers
// the thesis's predicate/observation/selector notation.
func BuildMeasures(c *Campaign) ([]*measure.StudyMeasure, error) {
	var out []*measure.StudyMeasure
	names := make(map[string]bool, len(c.Measures))
	for _, mm := range c.Measures {
		if mm.Name == "" {
			return nil, fmt.Errorf("config: measure with empty name")
		}
		if names[mm.Name] {
			return nil, fmt.Errorf("config: duplicate measure %q", mm.Name)
		}
		names[mm.Name] = true
		var triples []measure.Triple
		for i, tr := range mm.Triples {
			t, err := measure.ParseTriple(tr.Select, tr.Predicate, tr.Observation)
			if err != nil {
				return nil, fmt.Errorf("config: measure %q triple %d: %w", mm.Name, i, err)
			}
			triples = append(triples, t)
		}
		sm, err := measure.NewStudyMeasure(mm.Name, triples...)
		if err != nil {
			return nil, fmt.Errorf("config: measure %q: %w", mm.Name, err)
		}
		out = append(out, sm)
	}
	return out, nil
}
