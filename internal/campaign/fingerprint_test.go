package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/spec"
)

// refCampaignFingerprint and refStudyFingerprint are the fmt renderings
// the journal's fingerprints were defined by; every journal written so far
// carries their hashes. studyFingerprint now appends its text without fmt,
// and campaignFingerprint is computed once per latency profile; both must
// keep hashing these bytes, or no existing journal resumes.
func refCampaignFingerprint(c *Campaign) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign %q\n", c.Name)
	for _, hd := range c.Hosts {
		fmt.Fprintf(h, "host %q clock %+v\n", hd.Name, hd.Clock)
	}
	fmt.Fprintf(h, "sync %+v\ncheck %+v\n", c.Sync, c.Check)
	fmt.Fprintf(h, "runtime %v %v %v %v\n",
		c.Runtime.LocalDelay, c.Runtime.RemoteDelay,
		c.Runtime.WatchdogInterval, c.Runtime.WatchdogTimeout)
	if c.VirtualTime {
		fmt.Fprintf(h, "virtual-time\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func refStudyFingerprint(c *Campaign, st *Study, point string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign %s point %q study %q\n", refCampaignFingerprint(c), point, st.Name)
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

// oddNames are the names the fingerprints and point names quote or copy:
// quotes, backslashes, control bytes, invalid UTF-8 and non-ASCII text.
var oddNames = []string{"", "plain", `say "hi"`, `back\slash`, "tab\there\nline", "\xff\xfe bad utf-8", "naïve/ünï", "日本語", "emoji 🙂", "\x00nul"}

// TestPointNameMatchesSprintf: Point.Name concatenates what
// fmt.Sprintf("%s/%s/seed%d") printed, byte for byte — the journal keys
// every matrix record by it.
func TestPointNameMatchesSprintf(t *testing.T) {
	seeds := []int64{0, 1, 7, 99, 100, -1, -100, 1 << 40, -1 << 63, 1<<63 - 1}
	for i, sc := range oddNames {
		lp := oddNames[(i+3)%len(oddNames)]
		for _, seed := range seeds {
			p := Point{Scenario: Scenario{Name: sc}, Latency: LatencyProfile{Name: lp}, Seed: seed}
			if got, want := p.Name(), fmt.Sprintf("%s/%s/seed%d", sc, lp, seed); got != want {
				t.Errorf("Name() = %q, Sprintf = %q", got, want)
			}
		}
	}
}

// TestPointNameFollowsItsFields: a point copied out of Matrix.Points and
// changed is named by what it now holds; the name is no state of its own.
func TestPointNameFollowsItsFields(t *testing.T) {
	m := &Matrix{Scenarios: []Scenario{{Name: "netsplit"}}, Latencies: []LatencyProfile{{Name: "wan"}}, Seeds: []int64{1}}
	p := m.Points()[0]
	if got := p.Name(); got != "netsplit/wan/seed1" {
		t.Fatalf("expanded point named %q", got)
	}
	p.Scenario.Name, p.Latency.Name, p.Seed = "crash", "lan", 2
	if got := p.Name(); got != "crash/lan/seed2" {
		t.Errorf("changed point named %q, want %q", got, "crash/lan/seed2")
	}
}

// fingerprintStudy builds a study from a fuzz input: every field the study
// fingerprint reads, the names odd, a restart policy and placement
// optional, one fault with and one without an action (whose For is
// optional).
func fingerprintStudy(t testing.TB, name, text string, seed int64, restarts bool, forDur time.Duration) *Study {
	t.Helper()
	expr, err := faultexpr.Parse("(black:LEAD) & !(green:FOLLOW)")
	if err != nil {
		t.Fatal(err)
	}
	st := &Study{
		Name:        name,
		Experiments: int(seed % 1000),
		Timeout:     time.Duration(seed) * time.Microsecond,
		Transport:   text,
		ChaosSeed:   seed,
		Placement:   []spec.NodeEntry{{Nickname: name, Host: text}, {Nickname: "green", Host: "h2"}},
		Nodes: []core.NodeDef{
			{Nickname: name, Faults: []faultexpr.Spec{
				{Name: text, Expr: expr, Mode: faultexpr.Once},
				{Name: "split", Expr: expr, Mode: faultexpr.Always, Action: &faultexpr.ActionCall{Name: "partition", Raw: text, For: forDur}},
			}},
			{Nickname: "green"},
		},
	}
	if restarts {
		st.Restarts = &RestartPolicy{After: forDur, MaxPerNode: 2, Host: text, Poll: time.Millisecond}
	}
	return st
}

// FuzzStudyFingerprintMatchesFmt: the appended study fingerprint, and the
// campaign fingerprint it is keyed under, hash the bytes their fmt
// references print, for any names, seed, restart policy, placement and
// action. Its seeds cover every odd name with and without a restart
// policy and an action duration; they run in every plain go test.
func FuzzStudyFingerprintMatchesFmt(f *testing.F) {
	for i, n := range oddNames {
		for _, restarts := range []bool{false, true} {
			for _, forDur := range []time.Duration{0, 30 * time.Millisecond} {
				f.Add(n, oddNames[(i+1)%len(oddNames)], int64(i*37-100), restarts, int64(forDur))
			}
		}
	}
	f.Fuzz(func(t *testing.T, name, text string, seed int64, restarts bool, forNS int64) {
		c := &Campaign{Name: text, Hosts: []HostDef{{Name: name}, {Name: "h2"}}, VirtualTime: restarts}
		c.Runtime.RemoteDelay = time.Duration(forNS)
		st := fingerprintStudy(t, name, text, seed, restarts, time.Duration(forNS))
		cfp := campaignFingerprint(c)
		if want := refCampaignFingerprint(c); cfp != want {
			t.Fatalf("campaignFingerprint = %s, reference %s", cfp, want)
		}
		point := name + "/" + text
		if got, want := studyFingerprint(cfp, st, point), refStudyFingerprint(c, st, point); got != want {
			t.Fatalf("studyFingerprint(%q, %q) = %s, reference %s", st.Name, point, got, want)
		}
	})
}

// TestMatrixJournalFingerprintsMatchFmt: RunMatrix computes each latency
// profile's campaign fingerprint once, by profile index; every point's
// journaled records must still carry the fingerprint the fmt reference
// gives the point's own derived campaign, and Namespaces, which a status
// query compares them with, must give the same, with the template's
// experiment count.
func TestMatrixJournalFingerprintsMatchFmt(t *testing.T) {
	dir := t.TempDir()
	c := stepCampaign(t, 1, 2)
	c.Checkpoint = &Checkpoint{Dir: dir}
	m := &Matrix{
		Name:      "fp",
		Scenarios: []Scenario{{Name: "baseline"}, {Name: `"odd" \ ü`}},
		Latencies: []LatencyProfile{{Name: "fast", Local: time.Microsecond}, {Name: "slow", Remote: 300 * time.Microsecond}},
		Seeds:     []int64{-2, 5},
		Study:     stepStudy(t, 1),
	}
	if _, err := RunMatrix(context.Background(), c, m); err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range sum.Points {
		got[p.Point] = p.Fingerprint
	}
	pts := m.Points()
	if len(got) != len(pts) {
		t.Fatalf("journal holds %d points, the matrix has %d", len(got), len(pts))
	}
	overlays, err := m.scenarioStudies(c, pts)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Namespaces(c, m)
	if err != nil || len(ns) != len(pts) {
		t.Fatalf("Namespaces: %d, %v; want %d", len(ns), err, len(pts))
	}
	for i, p := range pts {
		name := p.Name()
		st := pointStudy(overlays[p.scenario], &p, name)
		if st.ChaosSeed != p.Seed || st.Name != m.Study.Name {
			t.Errorf("point %s: study seed %d name %q, want %d %q", name, st.ChaosSeed, st.Name, p.Seed, m.Study.Name)
		}
		pc := pointCampaign(c, m, &p)
		want := refStudyFingerprint(&pc, &st, name)
		if got[name] != want {
			t.Errorf("point %s journaled under %s, reference %s", name, got[name], want)
		}
		if want := (Namespace{name, m.Study.Experiments, want}); ns[i] != want {
			t.Errorf("point %s: Namespaces gives %+v, want %+v", name, ns[i], want)
		}
	}
}

// TestPointNameAndFingerprintAllocBudget holds one matrix point's name and
// journal fingerprint, given its profile's campaign fingerprint, to a
// small constant: the name, the rendered timeout, fault expressions and
// action, and the result; the text hashed stays on the stack. Measured at
// 10 for this study when the budget was set, in a -race build too (12
// while the action call was rendered to a string); the fmt version allocated 28
// for the fingerprint alone, plus 18 for the campaign fingerprint it
// recomputed.
func TestPointNameAndFingerprintAllocBudget(t *testing.T) {
	budget := 10.0
	if raceBuild {
		budget = 11
	}
	c := stepCampaign(t, 1, 2)
	st := fingerprintStudy(t, "black", "h1", 3, false, 10*time.Millisecond)
	p := Point{Scenario: Scenario{Name: "netsplit"}, Latency: LatencyProfile{Name: "wan"}, Seed: 3}
	cfp := campaignFingerprint(c)
	var name, fp string
	allocs := testing.AllocsPerRun(200, func() {
		name = p.Name()
		fp = studyFingerprint(cfp, st, name)
	})
	t.Logf("%.1f allocs per point name and fingerprint", allocs)
	if allocs > budget {
		t.Errorf("a point's name and fingerprint allocate %.1f, budget %.0f", allocs, budget)
	}
	if fp != refStudyFingerprint(c, st, name) {
		t.Errorf("fingerprint %s differs from the reference", fp)
	}
}

// TestMatrixExpansionAllocBudget holds what Validate and Namespaces
// allocate per point of a 512-point matrix: each expands the matrix once,
// naming each point as it goes, and Namespaces reuses Validate's points
// and names.
// Measured at 1.05 and 5.35 per point when the budget was set, where the
// name is Validate's one allocation per point and Namespaces adds the
// point's study fingerprint; 2.08 and 7.38 when Validate expanded the
// matrix twice and Namespaces three times, each naming every point again
// (1.05 and 5.50 in a -race build).
func TestMatrixExpansionAllocBudget(t *testing.T) {
	c := stepCampaign(t, 1, 2)
	c.Studies = nil
	m := &Matrix{Name: "wide", Study: stepStudy(t, 1)}
	for i := range 4 {
		m.Scenarios = append(m.Scenarios, Scenario{Name: fmt.Sprintf("scenario%d", i)})
	}
	for i := range 8 {
		m.Latencies = append(m.Latencies, LatencyProfile{Name: fmt.Sprintf("profile%d", i), Local: time.Duration(i) * time.Microsecond})
	}
	for i := range 16 {
		m.Seeds = append(m.Seeds, int64(1000+i))
	}
	const points = 4 * 8 * 16
	perPoint := func(f func() error) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}) / points
	}
	validate := perPoint(func() error { return Validate(c, m) })
	namespaces := perPoint(func() error { _, err := Namespaces(c, m); return err })
	t.Logf("allocations per point: Validate %.2f, Namespaces %.2f", validate, namespaces)
	const validateBudget, namespacesBudget = 1.5, 6
	if validate > validateBudget || namespaces > namespacesBudget {
		t.Errorf("per point, Validate allocates %.2f (budget %.1f) and Namespaces %.2f (budget %.1f)", validate, validateBudget, namespaces, float64(namespacesBudget))
	}
}
