package campaign

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/faultexpr"
)

// stepStudy builds one instance of the deterministic three-step study used
// by the parallel determinism tests; every matrix point needs its own.
func stepStudy(t testing.TB, experiments int) *Study {
	t.Helper()
	c := stepCampaign(t, experiments, 1)
	return c.Studies[0]
}

func TestMatrixPointsExpansion(t *testing.T) {
	m := &Matrix{
		Name: "m",
		Scenarios: []Scenario{
			{Name: "baseline"},
			{Name: "cut"},
		},
		Latencies: []LatencyProfile{
			{Name: "lan", Local: 20 * time.Microsecond, Remote: 150 * time.Microsecond},
			{Name: "wan", Local: 20 * time.Microsecond, Remote: 2 * time.Millisecond},
		},
		Seeds: []int64{1, 2},
	}
	pts := m.Points()
	if len(pts) != 8 {
		t.Fatalf("len(points) = %d, want 8", len(pts))
	}
	if pts[0].Name() != "baseline/lan/seed1" || pts[7].Name() != "cut/wan/seed2" {
		t.Errorf("point names: first=%q last=%q", pts[0].Name(), pts[7].Name())
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
	}
}

func TestMatrixDefaultsAxes(t *testing.T) {
	m := &Matrix{Name: "m"}
	pts := m.Points()
	if len(pts) != 1 || pts[0].Name() != "baseline/default/seed1" {
		t.Fatalf("defaulted points = %+v", pts)
	}
}

func TestParseScenarioFaults(t *testing.T) {
	sf, err := ParseScenarioFaults(`
# partition the leader's host when alpha leads
alpha cut (alpha:S2) once partition(h1|h2,h3) 10ms
beta slow (beta:S2) always delay(*,h2,1ms)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf) != 2 || sf[0].Machine != "alpha" || sf[1].Machine != "beta" {
		t.Fatalf("faults = %+v", sf)
	}
	if sf[0].Spec.Action == nil || sf[0].Spec.Action.Name != "partition" {
		t.Errorf("fault 0 action = %+v", sf[0].Spec.Action)
	}
	if _, err := ParseScenarioFaults("nonsense"); err == nil {
		t.Error("want error for fault line without spec")
	}
}

func TestUnknownHostInActionRejected(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	st := c.Studies[0]
	f, ok, err := faultexpr.ParseSpecLine("cut (alpha:S2) once partition(h9|h1)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	st.Nodes[0].Faults = append(st.Nodes[0].Faults, f)
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("Run error = %v, want unknown host rejection", err)
	}
}

func TestMatrixUnknownMachineRejected(t *testing.T) {
	sf, err := ParseScenarioFaults("ghost cut (ghost:S2) once partition(h1)")
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{
		Name:      "m",
		Scenarios: []Scenario{{Name: "bad", Faults: sf}},
		Build:     func(Point) (*Study, error) { return stepStudy(t, 1), nil },
	}
	c := stepCampaign(t, 1, 1)
	if _, err := RunMatrix(context.Background(), c, m); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("RunMatrix error = %v, want unknown machine", err)
	}
}

func TestRunMatrixShardsAndOrders(t *testing.T) {
	cutFaults, err := ParseScenarioFaults("alpha cut (alpha:S2) once partition(h1|h2,h3) 5ms")
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{
		Name: "steps-matrix",
		Scenarios: []Scenario{
			{Name: "baseline"},
			{Name: "cut", Faults: cutFaults},
		},
		Latencies: []LatencyProfile{
			{Name: "fast"},
			{Name: "slow", Local: 50 * time.Microsecond, Remote: 500 * time.Microsecond},
		},
		Seeds: []int64{1, 2},
		Build: func(p Point) (*Study, error) { return stepStudy(t, 2), nil },
	}
	run := func(workers int) *MatrixResult {
		c := stepCampaign(t, 2, workers)
		c.Studies = nil
		res, err := RunMatrix(context.Background(), c, m)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if len(seq.Points) != 8 || len(par.Points) != 8 {
		t.Fatalf("points: seq=%d par=%d, want 8", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		s, p := seq.Points[i], par.Points[i]
		if s == nil || p == nil {
			t.Fatalf("point %d missing (seq=%v par=%v)", i, s != nil, p != nil)
		}
		if s.Point.Name() != p.Point.Name() {
			t.Errorf("point %d name: seq=%q par=%q", i, s.Point.Name(), p.Point.Name())
		}
		if len(s.Study.Records) != 2 || len(p.Study.Records) != 2 {
			t.Errorf("point %d records: seq=%d par=%d", i, len(s.Study.Records), len(p.Study.Records))
		}
		if sa, pa := s.Study.AcceptanceRate(), p.Study.AcceptanceRate(); sa != pa {
			t.Errorf("point %d acceptance: seq=%v par=%v", i, sa, pa)
		}
	}
	if got := seq.Point("cut/slow/seed2"); got == nil {
		t.Error("Point lookup by name failed")
	}
	a, total := seq.AcceptedTotal()
	if total != 16 {
		t.Errorf("total experiments = %d, want 16", total)
	}
	if a != total {
		t.Errorf("accepted %d of %d deterministic experiments", a, total)
	}
}

// TestMatrixDefaultLatencyInherits: a matrix with no Latencies axis must
// keep the campaign's configured notification delays, not zero them; an
// explicit axis overrides them, zero values included.
func TestMatrixDefaultLatencyInherits(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	c.Runtime.RemoteDelay = 150 * time.Microsecond
	c.Runtime.LocalDelay = 20 * time.Microsecond

	noAxis := &Matrix{Name: "m", Seeds: []int64{1}}
	p := noAxis.Points()[0]
	pc := pointCampaign(c, noAxis, p, 1)
	if pc.Runtime.RemoteDelay != 150*time.Microsecond || pc.Runtime.LocalDelay != 20*time.Microsecond {
		t.Errorf("no-axis point zeroed the configured delays: %+v", pc.Runtime)
	}

	withAxis := &Matrix{Name: "m", Latencies: []LatencyProfile{{Name: "zero"}}, Seeds: []int64{1}}
	p = withAxis.Points()[0]
	pc = pointCampaign(c, withAxis, p, 1)
	if pc.Runtime.RemoteDelay != 0 || pc.Runtime.LocalDelay != 0 {
		t.Errorf("explicit zero profile not applied: %+v", pc.Runtime)
	}
	if c.Runtime.RemoteDelay != 150*time.Microsecond {
		t.Errorf("campaign runtime config mutated: %v", c.Runtime.RemoteDelay)
	}
}

// TestClockStepDiscardsNotAborts: a clockstep action breaks the affine
// clock model, so the off-line synchronization becomes infeasible for that
// experiment. The analysis phase must discard the experiment (Accepted
// false, AnalysisError set), not abort the campaign.
func TestClockStepDiscardsNotAborts(t *testing.T) {
	c := stepCampaign(t, 2, 2)
	st := c.Studies[0]
	st.ChaosSeed = 3
	f, ok, err := faultexpr.ParseSpecLine("skew (alpha:S2) once clockstep(h2,5ms)")
	if err != nil || !ok {
		t.Fatal(err)
	}
	st.Nodes[0].Faults = append(st.Nodes[0].Faults, f)
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatalf("campaign aborted instead of discarding: %v", err)
	}
	sr := res.Study("steps")
	if len(sr.Records) != 2 {
		t.Fatalf("records = %d", len(sr.Records))
	}
	for _, rec := range sr.Records {
		if !rec.Completed {
			t.Errorf("experiment %d did not complete", rec.Index)
		}
		if rec.Accepted {
			t.Errorf("experiment %d accepted despite a stepped clock", rec.Index)
		}
		if rec.AnalysisError == "" {
			t.Errorf("experiment %d has no analysis error", rec.Index)
		}
		// The step happened between the two sync mini-phases, each of
		// which is affine on its own: the analysis must name the cause,
		// not just report an infeasible fit.
		if !rec.ClockStepSuspected {
			t.Errorf("experiment %d: clock step not suspected (error: %s)", rec.Index, rec.AnalysisError)
		}
		if len(rec.ClockStepHosts) != 1 || rec.ClockStepHosts[0] != "h2" {
			t.Errorf("experiment %d: suspected hosts = %v, want [h2]", rec.Index, rec.ClockStepHosts)
		}
	}
}

// TestCleanRunNotClockStepSuspected: a feasible experiment must never
// carry the clock-step verdict.
func TestCleanRunNotClockStepSuspected(t *testing.T) {
	res, err := Run(context.Background(), stepCampaign(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Study("steps").Records[0]
	if rec.ClockStepSuspected || len(rec.ClockStepHosts) != 0 {
		t.Fatalf("clean run suspected of a clock step: %+v", rec)
	}
}

// TestStaleClockStepClearedBeforePreSync: leftover clock skew from a
// previous experiment on the same worker runtime must be cleared before
// the next experiment's pre-sync mini-phase — otherwise that experiment's
// stamps mix stepped and clean readings and it is spuriously discarded,
// making accepted sets depend on which worker ran what.
func TestStaleClockStepClearedBeforePreSync(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	st := c.Studies[0]
	tb, err := newLocalTestbed(c, st)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	if err := tb.rt.StepHostClock("h2", 5e6); err != nil { // previous experiment's fault
		t.Fatal(err)
	}
	raw, err := runRuntimePhase(c, st, tb, st.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := analyzeExperiment(c, st, raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.AnalysisError != "" {
		t.Fatalf("stale clock step leaked into the pre-sync phase: %s", rec.AnalysisError)
	}
	if !rec.Accepted {
		t.Error("clean experiment after a stale step not accepted")
	}
}

// canonGlobal renders the machine-local structure of a global timeline —
// per machine, its ordered (kind, event, state, fault) records — without
// timestamps. Per-machine order is what a deterministic system fixes;
// cross-machine interleaving legitimately varies with real clocks.
func canonGlobal(g *analysis.Global) string {
	var b strings.Builder
	for _, m := range g.Machines {
		fmt.Fprintf(&b, "[%s]\n", m)
		for _, e := range g.Events {
			if e.Machine != m {
				continue
			}
			fmt.Fprintf(&b, "%d %s %s %s\n", e.Kind, e.Event, e.State, e.Fault)
		}
	}
	return b.String()
}

// TestChaosParallelDeterminism extends TestParallelDeterminism to action
// faults: a campaign whose nodes carry built-in chaos actions (partition,
// clockstep-free link faults) must produce byte-identical accepted
// experiment sets and byte-identical per-machine global timeline structure
// at every worker count. Run under -race in CI.
func TestChaosParallelDeterminism(t *testing.T) {
	const experiments = 6
	chaosFaults := map[string]string{
		"alpha": "alphacut (alpha:S2) once partition(h1|h2,h3) 5ms",
		"beta":  "betadrop (beta:S2) once drop(h2,h3,1) 5ms",
		"gamma": "gammadup (gamma:S2) always duplicate(h3,*,1,1)",
	}
	build := func(workers int) *Campaign {
		c := stepCampaign(t, experiments, workers)
		st := c.Studies[0]
		st.ChaosSeed = 7
		for i := range st.Nodes {
			line, ok := chaosFaults[st.Nodes[i].Nickname]
			if !ok {
				continue
			}
			f, ok2, err := faultexpr.ParseSpecLine(line)
			if err != nil || !ok2 {
				t.Fatal(err)
			}
			st.Nodes[i].Faults = append(st.Nodes[i].Faults, f)
		}
		return c
	}
	summarize := func(workers int) (accepted string, canon string) {
		res, err := Run(context.Background(), build(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sr := res.Study("steps")
		if len(sr.Records) != experiments {
			t.Fatalf("workers=%d: %d records", workers, len(sr.Records))
		}
		var acc, can strings.Builder
		for _, r := range sr.Records {
			if r == nil || !r.Completed {
				t.Fatalf("workers=%d: incomplete record %+v", workers, r)
			}
			if r.Accepted {
				fmt.Fprintf(&acc, "%d,", r.Index)
				fmt.Fprintf(&can, "== exp %d ==\n%s", r.Index, canonGlobal(r.Global))
			}
		}
		return acc.String(), can.String()
	}
	accSeq, canonSeq := summarize(1)
	accPar, canonPar := summarize(8)
	if accSeq != accPar {
		t.Errorf("accepted sets differ:\n  workers=1: %s\n  workers=8: %s", accSeq, accPar)
	}
	if canonSeq != canonPar {
		t.Errorf("global timeline structure differs between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", canonSeq, canonPar)
	}
	if accSeq == "" {
		t.Error("no experiments accepted under chaos actions; the determinism check is vacuous")
	}
	// Every accepted experiment must actually have fired the chaos faults.
	if !strings.Contains(canonSeq, "alphacut") {
		t.Error("alphacut injection missing from accepted global timelines")
	}
}
