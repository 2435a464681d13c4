// Benchmarks regenerating every quantitative table and figure of the
// thesis's evaluation, plus micro-benchmarks of the runtime's hot paths.
// See EXPERIMENTS.md for the paper-vs-measured record. Run with:
//
//	go test -bench=. -benchmem
package loki_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	loki "repro"
	"repro/app"
	"repro/apps/election"
	"repro/internal/clocksync"
	"repro/internal/designsim"
	"repro/internal/faultexpr"
	"repro/internal/injectsim"
	"repro/internal/measure"
	"repro/internal/observation"
	"repro/internal/predicate"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// BenchmarkFig32_InjectionAccuracy10ms regenerates Figure 3.2: correct
// fault injection probability vs time spent in the target state, with the
// 10 ms Linux timeslice delay model — 6,000 experiments of the real
// pipeline under virtual time per iteration. The reported metric is the
// residence (ms) at which injections become 95% reliable — the thesis's
// "couple of OS timeslices" claim.
func BenchmarkFig32_InjectionAccuracy10ms(b *testing.B) {
	cfg := injectsim.Fig32Config()
	var points []injectsim.Point
	for i := 0; i < b.N; i++ {
		var err error
		if points, err = injectsim.Sweep(cfg, injectsim.Fig32Residences()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(injectsim.CrossoverMs(points, 0.95), "crossover95_ms")
	if b.N == 1 || testing.Verbose() {
		b.Logf("Figure 3.2 (10 ms timeslice):")
		for _, p := range points {
			b.Logf("  %s", p)
		}
	}
}

// BenchmarkFig33_InjectionAccuracy1ms regenerates Figure 3.3 (1 ms
// timeslice): the curve shifts roughly 10x left.
func BenchmarkFig33_InjectionAccuracy1ms(b *testing.B) {
	cfg := injectsim.Fig33Config()
	var points []injectsim.Point
	for i := 0; i < b.N; i++ {
		var err error
		if points, err = injectsim.Sweep(cfg, injectsim.Fig33Residences()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(injectsim.CrossoverMs(points, 0.95), "crossover95_ms")
	if b.N == 1 || testing.Verbose() {
		b.Logf("Figure 3.3 (1 ms timeslice):")
		for _, p := range points {
			b.Logf("  %s", p)
		}
	}
}

// BenchmarkTable34_DesignChoices regenerates the §3.4.2 design comparison:
// six design points, costs anchored at the thesis's 20 µs IPC / 150 µs
// TCP. Metrics report the chosen design's latencies.
func BenchmarkTable34_DesignChoices(b *testing.B) {
	costs := designsim.ThesisCosts()
	scen := designsim.Scenario{Hosts: 4, NodesPerHost: 4}
	var rows []designsim.Row
	for i := 0; i < b.N; i++ {
		rows = designsim.Table(costs, scen)
	}
	chosen := designsim.Chosen(costs, scen)
	b.ReportMetric(float64(chosen.SameHostNotify)/1000, "chosen_same_us")
	b.ReportMetric(float64(chosen.CrossHostNotify)/1000, "chosen_cross_us")
	if b.N == 1 || testing.Verbose() {
		b.Logf("\n%s", designsim.Format(rows, scen))
	}
}

// BenchmarkFig42_PredicateTimelines regenerates Figure 4.2: the three
// example predicates evaluated over the §4.3.1 global timeline, and the
// three example observation functions applied to each.
func BenchmarkFig42_PredicateTimelines(b *testing.B) {
	g := predicate.Fig42Timeline()
	preds := []predicate.Expr{
		predicate.MustParse("((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))"),
		predicate.MustParse("((StateMachine3, State3, Event3, 10 < t < 30) | (StateMachine3, State4, Event4, 20 < t < 40))"),
		predicate.MustParse("((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))"),
	}
	obs := []observation.Func{
		observation.MustParse("count(U, B, 10, 35)"),
		observation.MustParse("duration(T, 2, 10, 40)"),
		observation.MustParse("instant(U, I, 2, 0, 50)"),
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preds {
			pvt := predicate.Evaluate(p, g)
			for _, f := range obs {
				sink += f.Apply(pvt, observation.Env{})
			}
		}
	}
	b.StopTimer()
	_ = sink
	if b.N == 1 || testing.Verbose() {
		for pi, p := range preds {
			pvt := predicate.Evaluate(p, g)
			b.Logf("predicate %d: %v", pi+1, pvt)
			for _, f := range obs {
				b.Logf("  %s = %g", f, f.Apply(pvt, observation.Env{}))
			}
		}
	}
}

// electionCampaign builds the Chapter 5 campaign used by the E5.x benches.
// runCampaign runs a studies campaign through a Session to completion.
func runCampaign(tb testing.TB, c *loki.Campaign) *loki.CampaignOutcome {
	tb.Helper()
	s, err := loki.Open(c)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res.Campaign
}

func electionCampaign(name string, experiments int, restart bool, seed int64) *loki.Campaign {
	return electionCampaignRunFor(name, experiments, restart, seed, 80*time.Millisecond)
}

func electionCampaignRunFor(name string, experiments int, restart bool, seed int64, runFor time.Duration) *loki.Campaign {
	peers := []string{"black", "green", "yellow"}
	var nodes []loki.NodeDef
	for i, nick := range peers {
		in := election.New(election.Config{
			Peers:  peers,
			RunFor: runFor,
			Seed:   seed + int64(i),
		})
		var faults []loki.FaultSpec
		if nick == "black" {
			faults = []loki.FaultSpec{{
				Name: "bfault1",
				Expr: faultexpr.MustParse("(black:LEAD)"),
				Mode: faultexpr.Once,
			}}
			in.On("bfault1", app.DelayedCrashFault(8*time.Millisecond, 0, seed))
		}
		nodes = append(nodes, loki.NodeDef{
			Nickname: nick,
			Spec:     election.SpecFor(nick, peers),
			Faults:   faults,
			App:      in,
		})
	}
	st := &loki.Study{
		Name:        "study1",
		Nodes:       nodes,
		Experiments: experiments,
		Timeout:     10 * time.Second,
		Placement: []loki.NodeEntry{
			{Nickname: "black", Host: "h1"},
			{Nickname: "green", Host: "h2"},
			{Nickname: "yellow", Host: "h3"},
		},
	}
	if restart {
		st.Restarts = &loki.RestartPolicy{After: 4 * time.Millisecond, MaxPerNode: 1}
	}
	return &loki.Campaign{
		Name: name,
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 4e6, DriftPPM: 70}},
			{Name: "h3", Clock: loki.ClockConfig{Offset: -3e6, DriftPPM: -40}},
		},
		Studies: []*loki.Study{st},
		Sync:    loki.SyncConfig{Messages: 8, Transit: 20 * time.Microsecond, Spacing: 40 * time.Microsecond},
	}
}

// BenchmarkCh5_CoverageCampaign runs the §5.8 coverage evaluation (study 1
// with supervised restarts) end to end, reporting the estimated coverage of
// a leader error and the analysis acceptance rate.
func BenchmarkCh5_CoverageCampaign(b *testing.B) {
	var coverage, acceptance float64
	for i := 0; i < b.N; i++ {
		// black must lead (and crash) for the coverage measure to select
		// experiments; election outcomes are random, so try a few seeds.
		var study *loki.StudyOutcome
		for attempt := 0; attempt < 8; attempt++ {
			study = runCampaign(b, electionCampaign("cov", 3, true, int64(i)*11+int64(attempt))).Study("study1")
			if crashed(study) {
				break
			}
		}
		acceptance = study.AcceptanceRate()
		m := coverageStudyMeasure(b)
		values := m.ApplyAll(study.AcceptedGlobals())
		if len(values) > 0 {
			coverage = measure.ComputeMoments(values).Mean()
		}
	}
	b.ReportMetric(coverage, "coverage")
	b.ReportMetric(acceptance, "acceptance_rate")
}

func coverageStudyMeasure(b *testing.B) *measure.StudyMeasure {
	b.Helper()
	restarted := observation.User{
		Name: "restarted",
		Fn: func(p predicate.PVT, env observation.Env) float64 {
			if (observation.TotalDuration{Phase: observation.TruePhase,
				Start: observation.StartExp(), End: observation.EndExp()}).Apply(p, env) > 0 {
				return 1
			}
			return 0
		},
	}
	m, err := measure.NewStudyMeasure("coverage",
		measure.Triple{
			Select: measure.Default{},
			Pred:   predicate.MustParse("(black, CRASH)"),
			Obs:    observation.MustParse("total_duration(T, START_EXP, END_EXP)"),
		},
		measure.Triple{
			Select: measure.Cmp{Op: measure.OpGT, Value: 0},
			Pred:   predicate.MustParse("(black, RESTART_SM)"),
			Obs:    restarted,
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCh5_CorrelationCampaign runs the §5.8 second evaluation shape:
// the fraction of accepted experiments in which the leader crash was
// followed by the study's observed condition (here: a follower led —
// evidence the crash propagated through the protocol).
func BenchmarkCh5_CorrelationCampaign(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		// black must actually lead (and crash) for the measure to select
		// experiments; election outcomes are random, so try a few seeds.
		var study *loki.StudyOutcome
		for attempt := 0; attempt < 8; attempt++ {
			study = runCampaign(b, electionCampaignRunFor("corr", 3, false,
				100+int64(i)*7+int64(attempt), 200*time.Millisecond)).Study("study1")
			if crashed(study) {
				break
			}
		}
		m, err := measure.NewStudyMeasure("crashObserved",
			measure.Triple{
				Select: measure.Default{},
				Pred:   predicate.MustParse("(black, CRASH)"),
				Obs:    observation.MustParse("total_duration(T, START_EXP, END_EXP)"),
			},
			measure.Triple{
				Select: measure.Cmp{Op: measure.OpGT, Value: 0},
				Pred:   predicate.MustParse("((green, LEAD) | (yellow, LEAD))"),
				Obs: observation.User{Name: "tookOver", Fn: func(p predicate.PVT, env observation.Env) float64 {
					if (observation.TotalDuration{Phase: observation.TruePhase,
						Start: observation.StartExp(), End: observation.EndExp()}).Apply(p, env) > 0 {
						return 1
					}
					return 0
				}},
			},
		)
		if err != nil {
			b.Fatal(err)
		}
		values := m.ApplyAll(study.AcceptedGlobals())
		if len(values) > 0 {
			fraction = measure.ComputeMoments(values).Mean()
		}
	}
	b.ReportMetric(fraction, "takeover_fraction")
}

// crashed reports whether any accepted experiment recorded a black crash.
func crashed(study *loki.StudyOutcome) bool {
	for _, g := range study.AcceptedGlobals() {
		for _, e := range g.MachineEvents("black") {
			if e.State == "CRASH" {
				return true
			}
		}
	}
	return false
}

// BenchmarkClockSyncBounds is experiment X1: convex-hull estimation over a
// simulated LAN exchange; metrics report the alpha-bound width (µs), which
// the thesis claims is "acceptably small" on a LAN.
func BenchmarkClockSyncBounds(b *testing.B) {
	var width float64
	for i := 0; i < b.N; i++ {
		msgs, err := lanStamps(int64(i), simnet.Exponential{Min: 80_000, MeanTail: 60_000},
			vclock.ClockConfig{Offset: 7e6, DriftPPM: 90}, 25, vclock.Ticks(30e9))
		if err != nil {
			b.Fatal(err)
		}
		bounds, err := clocksync.Estimate(clocksync.SamplesFor(msgs, "ref", "m1"))
		if err != nil {
			b.Fatal(err)
		}
		width = bounds.AlphaWidth() / 1000
	}
	b.ReportMetric(width, "alpha_width_us")
}

// lanStamps stamps two synchronization mini-phases of count round trips,
// gap apart, between an exact reference clock "ref" and a remote "m1" with
// the given hidden error.
func lanStamps(seed int64, lan simnet.LatencyModel, m1 vclock.ClockConfig, count int, gap vclock.Ticks) ([]clocksync.StampedMessage, error) {
	src := vclock.NewManualSource(0)
	rng := rand.New(rand.NewSource(seed))
	clocks := map[string]*vclock.Clock{
		"ref": vclock.NewClock(src, vclock.ClockConfig{}),
		"m1":  vclock.NewClock(src, m1),
	}
	cfg := clocksync.ExchangeConfig{Count: count}
	msgs, err := clocksync.Exchange(src, clocks, "ref", lan, rng, cfg)
	if err != nil {
		return nil, err
	}
	src.Advance(gap)
	more, err := clocksync.Exchange(src, clocks, "ref", lan, rng, cfg)
	return append(msgs, more...), err
}

// --- Micro-benchmarks of runtime hot paths ---

func BenchmarkFaultExprParse(b *testing.B) {
	src := "((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) | ~(yellow:LEAD)"
	for i := 0; i < b.N; i++ {
		if _, err := faultexpr.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredicateEvaluate(b *testing.B) {
	g := predicate.Fig42Timeline()
	p := predicate.MustParse("((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))")
	for i := 0; i < b.N; i++ {
		predicate.Evaluate(p, g)
	}
}

func BenchmarkMomentsAndPercentiles(b *testing.B) {
	values := make([]float64, 10_000)
	for i := range values {
		values[i] = float64(i%97) / 7
	}
	for i := 0; i < b.N; i++ {
		m := measure.ComputeMoments(values)
		if _, err := m.Percentile(0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SameClockCheck quantifies the reproduction's one
// refinement over the literal §2.5 check: with same-clock exactness,
// self-triggered injections (bfault1 fires microseconds after its own
// state entry) are provably correct; with projection-only checking their
// correctness is unprovable and acceptance collapses. Metrics report both
// acceptance rates on identical campaigns.
func BenchmarkAblation_SameClockCheck(b *testing.B) {
	// Place black on a non-reference host: on the reference host the
	// projection is exact (identity bounds) and the ablation would not
	// bite.
	swapBlackOffReference := func(c *loki.Campaign) {
		c.Studies[0].Placement = []loki.NodeEntry{
			{Nickname: "black", Host: "h2"},
			{Nickname: "green", Host: "h1"},
			{Nickname: "yellow", Host: "h3"},
		}
	}
	var withExact, projOnly float64
	for i := 0; i < b.N; i++ {
		c1 := electionCampaign("abl-exact", 3, false, 500+int64(i))
		swapBlackOffReference(c1)
		withExact = runCampaign(b, c1).Study("study1").AcceptanceRate()

		c2 := electionCampaign("abl-proj", 3, false, 500+int64(i))
		swapBlackOffReference(c2)
		c2.Check = loki.CheckOptions{ProjectionOnly: true}
		projOnly = runCampaign(b, c2).Study("study1").AcceptanceRate()
	}
	b.ReportMetric(withExact, "acceptance_same_clock")
	b.ReportMetric(projOnly, "acceptance_projection_only")
}
