package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// stepStudy is the deterministic three-step study used by the parallel
// determinism tests, for a matrix template.
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
		Study:     stepStudy(t, 1),
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
		Study: stepStudy(t, 2),
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
	pc := pointCampaign(c, noAxis, &p)
	if pc.Runtime.RemoteDelay != 150*time.Microsecond || pc.Runtime.LocalDelay != 20*time.Microsecond {
		t.Errorf("no-axis point zeroed the configured delays: %+v", pc.Runtime)
	}

	withAxis := &Matrix{Name: "m", Latencies: []LatencyProfile{{Name: "zero"}}, Seeds: []int64{1}}
	p = withAxis.Points()[0]
	pc = pointCampaign(c, withAxis, &p)
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
// false, AnalysisError set), not abort the campaign — on the wall clock
// and in virtual time alike.
func TestClockStepDiscardsNotAborts(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		t.Run(fmt.Sprintf("virtual=%v", virtual), func(t *testing.T) {
			testClockStepDiscardsNotAborts(t, virtual)
		})
	}
}

func testClockStepDiscardsNotAborts(t *testing.T, virtual bool) {
	c := stepCampaign(t, 2, 2)
	c.VirtualTime = virtual
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

// TestClockStepDiagnosisIgnoresEpoch: the step diagnosis must name the
// stepped host and bracket the step however far the stamps lie from the
// time base's epoch — a wall clock that has run for an hour, or a late
// experiment in simulated time. Fitting alpha at the epoch widens each
// phase's interval by its slope uncertainty times that distance, which
// washes out a 3ms step long before an hour.
func TestClockStepDiagnosisIgnoresEpoch(t *testing.T) {
	const step = vclock.Ticks(3e6)
	for _, start := range []vclock.Ticks{0, vclock.Ticks(time.Hour)} {
		src := vclock.NewManualSource(start)
		clocks := map[string]*vclock.Clock{
			"h1": vclock.NewClock(src, vclock.ClockConfig{}),
			"h2": vclock.NewClock(src, vclock.ClockConfig{Offset: 4e6, DriftPPM: 70}),
		}
		lan := simnet.Exponential{Min: 20e3, MeanTail: 5e3}
		rng := rand.New(rand.NewSource(1))
		cfg := clocksync.ExchangeConfig{Count: 20, Spacing: 200e3}
		pre, err := clocksync.Exchange(src, clocks, "h1", lan, rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Advance(40e6)
		clocks["h2"].Step(step)
		post, err := clocksync.Exchange(src, clocks, "h1", lan, rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := &rawExperiment{ref: "h1", stamps: append(pre, post...), pre: len(pre)}
		hosts, bounds := clockStepHosts(raw, new(clocksync.Estimator))
		if len(hosts) != 1 || hosts[0] != "h2" {
			t.Errorf("epoch %v behind: suspected hosts = %v, want [h2]", start.Duration(), hosts)
			continue
		}
		if b := bounds["h2"]; b.Lo > step || b.Hi < step {
			t.Errorf("epoch %v behind: step bound [%v, %v] excludes the injected %v",
				start.Duration(), b.Lo.Duration(), b.Hi.Duration(), step.Duration())
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
	tb := openTestbed(t, c, st)
	if err := tb.rt.StepHostClock("h2", 5e6); err != nil { // previous experiment's fault
		t.Fatal(err)
	}
	raw, err := runRuntimePhase(c, st, tb, st.Name, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := analyzeExperiment(c, st, raw, new(analyzer))
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

// TestNewAppOncePerNodePerTestbed counts NewApp calls, which happen once
// per node per study or point that a testbed runs: a study at Workers 2
// runs on two testbeds, each of which builds every node's application
// once, so no two testbeds share an instance; a study over a three-member
// loopback cluster builds each node's application once, on the member
// that runs it; a matrix of three points at Workers 2 runs each point on
// one testbed, two testbeds between them, and builds three points' worth
// of applications, however its testbeds pass from point to point; a
// resume of the fully journaled matrix runs no point and builds no
// application. Run under -race in CI.
func TestNewAppOncePerNodePerTestbed(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	apps := map[core.App]bool{}
	counted := func(st *Study) *Study {
		st.NewApp = func(p Point, nick string) (core.App, error) {
			app, err := stepApp(p, nick)
			mu.Lock()
			defer mu.Unlock()
			calls[nick]++
			apps[app] = true
			return app, err
		}
		return st
	}
	total := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range calls {
			n += k
		}
		clear(calls)
		return n
	}

	c := stepCampaign(t, 4, 2)
	counted(c.Studies[0])
	if _, err := Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if calls["alpha"] != 2 || calls["beta"] != 2 || calls["gamma"] != 2 || len(apps) != 6 {
		t.Errorf("a study at two workers called NewApp %v for %d instances; want twice per node, 6 instances", calls, len(apps))
	}
	total()
	clear(apps)

	c = stepCampaign(t, 1, 1)
	counted(c.Studies[0]).Transport = "udp"
	if _, err := Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if calls["alpha"] != 1 || calls["beta"] != 1 || calls["gamma"] != 1 || len(apps) != 3 {
		t.Errorf("a study over three cluster members called NewApp %v for %d instances; want once per node, 3 instances", calls, len(apps))
	}
	total()
	clear(apps)

	c = stepCampaign(t, 2, 2)
	c.Studies = nil
	c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
	m := &Matrix{Name: "m", Seeds: []int64{1, 2, 3}, Study: counted(stepStudy(t, 2))}
	if _, err := RunMatrix(context.Background(), c, m); err != nil {
		t.Fatal(err)
	}
	if n := total(); n != 3*3 || len(apps) != 3*3 {
		t.Errorf("a matrix of three points at two workers called NewApp %d times for %d instances; want once per node per point, 9 instances", n, len(apps))
	}
	c.Checkpoint.Resume = true
	res, err := RunMatrix(context.Background(), c, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := res.AcceptedTotal(); n != 6 {
		t.Fatalf("resume returned %d records, want 6", n)
	}
	if n := total(); n != 0 {
		t.Errorf("resuming a fully journaled matrix called NewApp %d times, want 0", n)
	}
}

// TestPointEventsInOrder: with two workers and a journal, points overlap
// in one pipeline, yet every point's events run StudyStart, then that
// point's experiment events, then StudyDone.
func TestPointEventsInOrder(t *testing.T) {
	c := stepCampaign(t, 3, 2)
	c.Studies = nil
	c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
	c.Obs = &obs.Sink{}
	var mu sync.Mutex
	var events []obs.Event
	defer c.Obs.Watch(func(ev obs.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})()
	m := &Matrix{Name: "order", Seeds: []int64{1, 2, 3, 4, 5}, Study: stepStudy(t, 3)}
	if _, err := RunMatrix(context.Background(), c, m); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	state := map[string]int{} // 0 not started, 1 started, 2 done
	seen := map[string]int{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.EventStudyStart:
			if state[ev.Point] != 0 {
				t.Fatalf("point %s started twice", ev.Point)
			}
			state[ev.Point] = 1
		case obs.EventExperiment:
			if state[ev.Point] != 1 {
				t.Fatalf("point %s: experiment event outside start..done", ev.Point)
			}
			seen[ev.Point]++
		case obs.EventStudyDone:
			if state[ev.Point] != 1 || seen[ev.Point] != 3 {
				t.Fatalf("point %s: done after %d of 3 experiment events", ev.Point, seen[ev.Point])
			}
			state[ev.Point] = 2
		}
	}
	for _, p := range m.Points() {
		if state[p.Name()] != 2 {
			t.Errorf("point %s never reported done", p.Name())
		}
	}
}

// TestClusteredPointsOverlap: a socket-transport matrix runs up to Workers
// points at once, each on a loopback cluster of its own, and its results
// still land at their point index. Every point's first application waits
// until a second point has built one, which only a concurrent point can.
func TestClusteredPointsOverlap(t *testing.T) {
	c := stepCampaign(t, 1, 2)
	c.Studies = nil
	st := stepStudy(t, 1)
	st.Transport = "udp"
	var (
		mu     sync.Mutex
		points = map[int64]bool{}
		two    = make(chan struct{})
	)
	st.NewApp = func(p Point, nick string) (core.App, error) {
		mu.Lock()
		if !points[p.Seed] {
			if points[p.Seed] = true; len(points) == 2 {
				close(two)
			}
		}
		mu.Unlock()
		select {
		case <-two:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("point %d: no other point was built meanwhile", p.Seed)
		}
		return stepApp(p, nick)
	}
	m := &Matrix{Name: "clustered", Seeds: []int64{1, 2, 3}, Study: st}
	res, err := RunMatrix(context.Background(), c, m)
	if err != nil {
		t.Fatal(err)
	}
	for k, pr := range res.Points {
		if pr.Point.Seed != int64(k+1) || len(pr.Study.Records) != 1 || pr.Study.Records[0] == nil {
			t.Errorf("result %d is point %d with %d records, want point %d with 1", k, pr.Point.Seed, len(pr.Study.Records), k+1)
		}
	}
}
