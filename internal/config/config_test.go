package config

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/app"
	"repro/internal/campaign"
)

// randomCampaign generates a structurally valid random campaign for the
// codec round-trip property. Every field of the schema is exercised over
// the iterations.
func randomCampaign(rng *rand.Rand) *Campaign {
	c := &Campaign{
		Name:    fmt.Sprintf("campaign-%d", rng.Intn(1000)),
		Seed:    rng.Int63n(100),
		Workers: rng.Intn(8),
	}
	if rng.Intn(2) == 0 {
		c.Transport = []string{"inproc", "udp", "tcp"}[rng.Intn(3)]
	}
	nHosts := 1 + rng.Intn(3)
	for i := 0; i < nHosts; i++ {
		c.Hosts = append(c.Hosts, Host{
			Name:     fmt.Sprintf("h%d", i+1),
			OffsetNs: rng.Int63n(10e6) - 5e6,
			DriftPPM: float64(rng.Intn(200) - 100),
			JitterNs: rng.Int63n(300),
		})
	}
	if rng.Intn(2) == 0 {
		c.Sync = &Sync{
			Messages: 1 + rng.Intn(20),
			Spacing:  Duration(time.Duration(rng.Intn(1000)) * time.Microsecond),
			Transit:  Duration(time.Duration(1+rng.Intn(100)) * time.Microsecond),
		}
	}
	if rng.Intn(3) == 0 {
		c.Checkpoint = &Checkpoint{Dir: "out", Resume: rng.Intn(2) == 0}
	}
	study := Study{
		Name:        "s1",
		App:         []string{"", "election", "replica"}[rng.Intn(3)],
		Experiments: 1 + rng.Intn(9),
		Seed:        rng.Int63n(50),
		RunFor:      Duration(time.Duration(10+rng.Intn(200)) * time.Millisecond),
		Dormancy:    Duration(time.Duration(rng.Intn(20)) * time.Millisecond),
		Timeout:     Duration(time.Duration(1+rng.Intn(10)) * time.Second),
		Restart:     rng.Intn(2) == 0,
	}
	for i := 0; i < nHosts; i++ {
		study.Nodes = append(study.Nodes, Node{Name: fmt.Sprintf("m%d", i), Host: fmt.Sprintf("h%d", i+1)})
	}
	study.Faults = []string{"m0 f0 (m0:LEAD) once"}
	if rng.Intn(2) == 0 {
		c.Studies = []Study{study}
	} else {
		c.Matrix = &Matrix{
			Name: "mx",
			Scenarios: []Scenario{
				{Name: "baseline"},
				{Name: "cut", Faults: []string{"m0 cut (m0:LEAD) once partition(h1|h1) 10ms"}},
			},
			Latencies: []Latency{{Name: "lan", Local: Duration(20 * time.Microsecond), Remote: Duration(150 * time.Microsecond)}},
			Seeds:     []int64{1, 2},
			Study:     &study,
		}
	}
	if rng.Intn(2) == 0 {
		c.Measures = []Measure{{
			Name: "m",
			Triples: []MeasureTriple{{
				Select:      []string{"", "default", ">0"}[rng.Intn(3)],
				Predicate:   "(m0, CRASH)",
				Observation: "total_duration(T, START_EXP, END_EXP)",
			}},
		}}
	}
	if rng.Intn(4) == 0 {
		c.Cluster = &Cluster{
			Kind:   []string{"udp", "tcp"}[rng.Intn(2)],
			Peers:  map[string]string{"alpha": "127.0.0.1:7101", "beta": "127.0.0.1:7102"},
			Owners: map[string]string{"h1": "alpha"},
		}
	}
	return c
}

// TestCodecRoundTripProperty: Parse(Encode(c)) must reproduce c exactly,
// and the fingerprint must survive the round trip, for a few hundred
// randomized campaigns.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		c := randomCampaign(rng)
		b, err := Encode(c)
		if err != nil {
			t.Fatalf("iteration %d: encode: %v", i, err)
		}
		got, err := Parse(b)
		if err != nil {
			t.Fatalf("iteration %d: parse: %v\n%s", i, err, b)
		}
		if !reflect.DeepEqual(c, got) {
			t.Fatalf("iteration %d: round trip changed the campaign:\nbefore %+v\nafter  %+v\ndoc:\n%s", i, c, got, b)
		}
		if Fingerprint(c) != Fingerprint(got) {
			t.Fatalf("iteration %d: fingerprint changed across round trip", i)
		}
	}
}

// TestFingerprintStableAcrossFieldReordering: two documents that differ
// only in JSON field order and whitespace must share a fingerprint; a
// semantic edit must change it.
func TestFingerprintStableAcrossFieldReordering(t *testing.T) {
	a := `{
  "name": "fp",
  "seed": 3,
  "hosts": [{"name": "h1", "drift_ppm": 40}],
  "studies": [{
    "name": "s", "app": "election", "experiments": 2,
    "nodes": [{"name": "m0", "host": "h1"}],
    "runfor": "50ms"
  }]
}`
	b := `{
  "studies": [{
    "runfor": "50ms",
    "nodes": [{"host": "h1", "name": "m0"}],
    "experiments": 2, "app": "election", "name": "s"
  }],
  "hosts": [{"drift_ppm": 40, "name": "h1"}],
  "seed": 3,
  "name": "fp"
}`
	ca, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(ca) != Fingerprint(cb) {
		t.Errorf("reordered fields changed the fingerprint: %s vs %s", Fingerprint(ca), Fingerprint(cb))
	}
	cb.Studies[0].Experiments = 3
	if Fingerprint(ca) == Fingerprint(cb) {
		t.Error("semantic edit kept the fingerprint")
	}
}

func TestLoadRejectsUnknownFieldsAndGarbage(t *testing.T) {
	if _, err := Parse([]byte(`{"name": "x", "experimants": 3}`)); err == nil {
		t.Error("typoed field accepted")
	}
	if _, err := Parse([]byte(`{"name": "x"} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := Parse([]byte(`{"name": "x", "studies": [{"name":"s","runfor":"fast"}]}`)); err == nil {
		t.Error("bad duration accepted")
	}
	// A study has no worker pool of its own; the campaign's Workers is the
	// only one.
	if _, err := Parse([]byte(`{"name":"x","studies":[{"name":"s","experiments":1,"workers":2}]}`)); err == nil {
		t.Error("per-study workers accepted")
	}
}

func TestDurationAcceptsNanosecondNumbers(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte("1500000")); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 1500*time.Microsecond {
		t.Errorf("numeric duration = %v", d.Std())
	}
}

// golden documents for the checked-in example campaign files: decode each
// and pin the fields the examples depend on, so an accidental edit to a
// campaign.json breaks a test here, not an example at run time.
func exampleFile(t *testing.T, name string) *Campaign {
	t.Helper()
	c, err := LoadFile(filepath.Join("..", "..", "examples", name, "campaign.json"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

func TestGoldenChaosExample(t *testing.T) {
	c := exampleFile(t, "chaos")
	if c.Name != "election-chaos" || c.Matrix == nil || len(c.Studies) != 0 {
		t.Fatalf("chaos campaign shape: %+v", c)
	}
	if got := len(c.Matrix.Scenarios); got != 4 {
		t.Errorf("scenarios = %d, want 4 (baseline, netsplit, flaky, crashrestart)", got)
	}
	if got := len(c.Matrix.Latencies); got != 2 {
		t.Errorf("latencies = %d, want 2", got)
	}
	if !reflect.DeepEqual(c.Matrix.Seeds, []int64{1, 3}) {
		t.Errorf("seeds = %v", c.Matrix.Seeds)
	}
	st := c.Matrix.Study
	if st.Experiments != 4 || st.RunFor.Std() != 100*time.Millisecond || len(st.Nodes) != 3 {
		t.Errorf("study template = %+v", st)
	}
	// 4 scenarios x 2 latencies x 2 seeds x 4 experiments = 64, the
	// example's advertised total.
	if total := 4 * 2 * 2 * st.Experiments; total != 64 {
		t.Errorf("expanded experiment count = %d, want 64", total)
	}
	if c.Hosts[1].OffsetNs != 5e6 || c.Hosts[1].DriftPPM != 80 {
		t.Errorf("h2 clock = %+v", c.Hosts[1])
	}
}

func TestGoldenTransportExample(t *testing.T) {
	c := exampleFile(t, "transport")
	if len(c.Studies) != 1 || c.Matrix != nil {
		t.Fatalf("transport campaign shape: %+v", c)
	}
	st := c.Studies[0]
	if st.Name != "election" || st.Seed != 11 || st.Experiments != 4 {
		t.Errorf("study = %+v", st)
	}
	if len(st.Faults) != 3 || !strings.Contains(st.Faults[0], "partition(h1|h2,h3)") {
		t.Errorf("faults = %v", st.Faults)
	}
	// The example overrides the transport per run; the file must not pin
	// one.
	if st.Transport != "" || c.Transport != "" {
		t.Errorf("transport pinned in file: study=%q campaign=%q", st.Transport, c.Transport)
	}
}

func TestGoldenElectionExample(t *testing.T) {
	c := exampleFile(t, "election")
	if len(c.Studies) != 2 {
		t.Fatalf("election campaign shape: %+v", c)
	}
	s1, s0 := c.Studies[0], c.Studies[1]
	if s1.Name != "study1" || s1.Experiments != 6 || !s1.Restart || s1.Dormancy.Std() != 10*time.Millisecond {
		t.Errorf("study1 = %+v", s1)
	}
	if len(s1.Faults) != 3 {
		t.Errorf("study1 faults = %v", s1.Faults)
	}
	if s0.Name != "study0" || s0.Experiments != 3 || len(s0.Faults) != 0 || s0.Seed != 100 {
		t.Errorf("study0 = %+v", s0)
	}
	if len(c.Measures) != 1 || c.Measures[0].Name != "crash-durations" {
		t.Errorf("measures = %+v", c.Measures)
	}
	if _, err := BuildMeasures(c); err != nil {
		t.Errorf("declared measures do not compile: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Campaign {
		return &Campaign{
			Name: "v",
			Studies: []Study{{
				Name: "s", Experiments: 1,
				Nodes: []Node{{Name: "m0", Host: "h1"}},
			}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Campaign)
		want string
	}{
		{"negative workers", func(c *Campaign) { c.Workers = -1 }, "Workers"},
		{"zero experiments", func(c *Campaign) { c.Studies[0].Experiments = 0 }, "Experiments"},
		{"negative experiments", func(c *Campaign) { c.Studies[0].Experiments = -2 }, "Experiments"},
		{"unknown app", func(c *Campaign) { c.Studies[0].App = "nosuch" }, "unknown app"},
		{"unknown transport", func(c *Campaign) { c.Transport = "carrier-pigeon" }, "transport"},
		{"no nodes", func(c *Campaign) { c.Studies[0].Nodes = nil }, "no nodes"},
		{"no name", func(c *Campaign) { c.Name = "" }, "name"},
		{"duplicate study", func(c *Campaign) { c.Studies = append(c.Studies, c.Studies[0]) }, "duplicate study"},
		{"duplicate node", func(c *Campaign) {
			c.Studies[0].Nodes = append(c.Studies[0].Nodes, Node{Name: "m0"})
		}, "duplicate node"},
		{"fault on unknown machine", func(c *Campaign) {
			c.Studies[0].Faults = []string{"ghost f (ghost:LEAD) once"}
		}, "unknown machine"},
		{"bad fault line", func(c *Campaign) {
			c.Studies[0].Faults = []string{"m0 notaspec"}
		}, "fault"},
		{"placement on unknown host", func(c *Campaign) {
			c.Hosts = []Host{{Name: "other"}}
		}, "unknown host"},
		{"nothing to run", func(c *Campaign) { c.Studies = nil }, "no studies"},
		{"studies and matrix", func(c *Campaign) {
			st := c.Studies[0]
			c.Matrix = &Matrix{Name: "m", Study: &st}
		}, "both"},
		{"matrix without template", func(c *Campaign) {
			c.Studies = nil
			c.Matrix = &Matrix{Name: "m"}
		}, "template"},
		{"repeated matrix seed", func(c *Campaign) {
			st := c.Studies[0]
			c.Studies = nil
			c.Matrix = &Matrix{Name: "m", Study: &st, Seeds: []int64{3, 3}}
		}, "seed"},
		{"cluster unknown owner peer", func(c *Campaign) {
			c.Cluster = &Cluster{Kind: "udp", Peers: map[string]string{"a": "x"}, Owners: map[string]string{"h1": "b"}}
		}, "unknown peer"},
		{"bad measure predicate", func(c *Campaign) {
			c.Measures = []Measure{{Name: "m", Triples: []MeasureTriple{{Predicate: "((", Observation: "total_duration(T, START_EXP, END_EXP)"}}}}
		}, "measure"},
		{"no auto-start node", func(c *Campaign) {
			c.Studies[0].Nodes = []Node{{Name: "m0"}}
		}, "auto-start"},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(c)
		err := Validate(c)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := Validate(base()); err != nil {
		t.Errorf("base campaign rejected: %v", err)
	}
}

func TestBuildMaterializesStudies(t *testing.T) {
	c := &Campaign{
		Name: "b",
		Seed: 9,
		Studies: []Study{{
			Name: "s", App: "election", Experiments: 2,
			Nodes:    []Node{{Name: "m0", Host: "h1"}, {Name: "m1", Host: "h2"}},
			Faults:   []string{"m0 f (m0:LEAD) once"},
			Restart:  true,
			Dormancy: Duration(4 * time.Millisecond),
		}},
	}
	cc, m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatal("unexpected matrix")
	}
	if len(cc.Hosts) != 2 {
		t.Fatalf("derived hosts = %+v", cc.Hosts)
	}
	if cc.Hosts[0].Clock.Offset != 0 || cc.Hosts[0].Clock.DriftPPM != 0 {
		t.Errorf("reference clock not clean: %+v", cc.Hosts[0])
	}
	st := cc.Studies[0]
	if len(st.Nodes) != 2 || st.Experiments != 2 || st.ChaosSeed != 9 || st.Restarts == nil {
		t.Fatalf("study = %+v", st)
	}
	if len(st.Nodes[0].Faults) != 1 || len(st.Nodes[1].Faults) != 0 {
		t.Errorf("fault assignment: %+v / %+v", st.Nodes[0].Faults, st.Nodes[1].Faults)
	}
	if st.Nodes[0].App != nil || st.Nodes[0].Spec == nil {
		t.Error("node carries an app or lacks its spec")
	}
	if in, err := st.NewApp(campaign.Point{Seed: st.ChaosSeed}, "m0"); err != nil || in == nil {
		t.Errorf("NewApp: %v, %v", in, err)
	}
}

// seedLog records the seed of every application the "seedprobe"
// application's New builds.
var seedLog struct {
	sync.Mutex
	seeds []int64
}

func init() {
	election, _ := app.Lookup("election")
	app.MustRegister("seedprobe", app.Application{
		Spec: election.Spec,
		New: func(p app.Params) *app.Instrumented {
			seedLog.Lock()
			seedLog.seeds = append(seedLog.seeds, p.Seed)
			seedLog.Unlock()
			return election.New(p)
		},
	})
}

// TestBuildMatrixUsesPointSeed: describing a matrix builds no application,
// and the template's NewApp builds the registered application with the
// point's seed plus the per-machine stride, whatever the template's own
// seed, and knows only the template's machines.
func TestBuildMatrixUsesPointSeed(t *testing.T) {
	st := Study{
		Name: "", App: "seedprobe", Experiments: 1, Seed: 40,
		Nodes: []Node{{Name: "m0", Host: "h1"}, {Name: "m1", Host: "h1"}},
	}
	c := &Campaign{
		Name:   "bm",
		Matrix: &Matrix{Name: "m", Seeds: []int64{1, 2}, Study: &st},
	}
	seedLog.Lock()
	seedLog.seeds = nil
	seedLog.Unlock()
	cc, m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	seedLog.Lock()
	built := len(seedLog.seeds)
	seedLog.Unlock()
	if built != 0 {
		t.Errorf("Build called the application's New %d times, want 0", built)
	}
	if m == nil || m.Study == nil || m.Study.NewApp == nil {
		t.Fatal("matrix not built")
	}
	pts := m.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		seedLog.Lock()
		seedLog.seeds = nil
		seedLog.Unlock()
		for _, nick := range []string{"m0", "m1"} {
			if _, err := m.Study.NewApp(p, nick); err != nil {
				t.Fatal(err)
			}
		}
		seedLog.Lock()
		got := seedLog.seeds
		seedLog.Unlock()
		if want := []int64{p.Seed, p.Seed + 17}; !reflect.DeepEqual(got, want) {
			t.Errorf("point %s: applications seeded %v, want %v", p.Name(), got, want)
		}
	}
	if _, err := m.Study.NewApp(pts[0], "ghost"); err == nil {
		t.Error("NewApp built an application for a machine the template lacks")
	}
	if len(cc.Hosts) != 1 {
		t.Errorf("hosts from matrix template = %+v", cc.Hosts)
	}
}

func TestScenarioFileFormat(t *testing.T) {
	scs, err := ParseScenarioFile(`
# chaos scenarios
scenario baseline
end
scenario netsplit
  green gsplit (green:LEAD) once partition(h2|h1,h3) 50ms
  black bsplit (black:LEAD) once partition(h1|h2,h3) 50ms
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].Name != "baseline" || len(scs[0].Faults) != 0 {
		t.Fatalf("scenarios = %+v", scs)
	}
	ns, err := FindScenario(scs, "netsplit")
	if err != nil || len(ns.Faults) != 2 {
		t.Fatalf("netsplit = %+v, %v", ns, err)
	}
	if _, err := FindScenario(scs, "nope"); err == nil || !strings.Contains(err.Error(), "baseline, netsplit") {
		t.Errorf("FindScenario miss = %v", err)
	}
	// A machine whose nickname merely starts with "scenario" is a fault
	// line, not a block header.
	scs, err = ParseScenarioFile("scenario s\nscenario2 f2 (scenario2:LEAD) once crash(h1)\nend")
	if err != nil || len(scs) != 1 || len(scs[0].Faults) != 1 {
		t.Fatalf("prefixed machine: %+v, %v", scs, err)
	}
	for _, doc := range []string{
		"scenario a\nscenario b\nend",      // unclosed block
		"end",                              // end without scenario
		"black f (a:B) once",               // fault outside block
		"scenario a\nend\nscenario a\nend", // duplicate name
		"scenario a b\nend",                // name with spaces
		"scenario a\nblack notaspec\nend",  // bad fault line
		"# nothing",                        // no scenarios
	} {
		if _, err := ParseScenarioFile(doc); err == nil {
			t.Errorf("%q: want error", doc)
		}
	}
}

func TestFaultLinesAndAssignments(t *testing.T) {
	lines := FaultLines("\n# comment\nblack f (black:LEAD) once\n\ngreen g (green:LEAD) always\n")
	if len(lines) != 2 || lines[0] != "black f (black:LEAD) once" {
		t.Fatalf("lines = %q", lines)
	}
	m, err := ParseAssignments("a=1, b=2", "peer")
	if err != nil || len(m) != 2 || m["b"] != "2" {
		t.Fatalf("assignments = %v, %v", m, err)
	}
	for _, bad := range []string{"", "a", "a=", "=1", "a=1,a=2"} {
		if _, err := ParseAssignments(bad, "peer"); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
