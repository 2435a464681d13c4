// Package injectsim reproduces the thesis's runtime performance analysis
// (§3.2.2, Figures 3.2 and 3.3): the probability that Loki injects a fault
// in the intended global state, as a function of how long the application
// stays in that state, for 10 ms and 1 ms Linux scheduler timeslices.
//
// The experiment is the notification race at Loki's heart: machine A enters
// the trigger state and a notification travels to machine B, whose fault
// parser fires the injection on arrival; the injection is correct iff A is
// still in the state. The thesis's measurement showed the delay is
// dominated not by the wire but by OS context-switch waits quantized by the
// scheduler timeslice — injections become reliably correct once residence
// exceeds "a couple of OS timeslices".
//
// The race is run on the real pipeline, not on a model of it: every trial
// is one experiment of a campaign.Matrix under virtual time — two probe-
// instrumented machines on two hosts, a real notification, a real
// injection, both synchronization mini-phases — and it counts as correct
// when the §2.5 analysis accepts its record. What stands in for the
// original hardware (Linux 2.2 boxes on a LAN) is only the notification
// delay, drawn per trial from a model with exactly the thesis's two
// components (wire time + timeslice-quantized scheduling wait).
package injectsim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/vclock"
)

// Config parameterizes one sweep.
type Config struct {
	// Timeslice is the OS scheduling quantum (10 ms in Fig 3.2, 1 ms in
	// Fig 3.3).
	Timeslice vclock.Ticks
	// Wire is the raw network-plus-kernel path time (the thesis measures
	// ~150 µs for TCP on its LAN).
	Wire vclock.Ticks
	// PReady is the probability the receiving runtime is already
	// scheduled when the notification arrives, so no quantum wait occurs.
	PReady float64
	// Runnable is the number of competing runnable processes on the
	// receiving host.
	Runnable int
	// Trials is the number of experiments run per residence value.
	Trials int
	// Seed makes sweeps reproducible.
	Seed int64
}

// Fig32Config models Figure 3.2 (10 ms timeslice).
func Fig32Config() Config {
	return Config{
		Timeslice: vclock.FromMillis(10),
		Wire:      150_000, // 150 µs
		PReady:    0.35,
		Runnable:  1,
		Trials:    400,
		Seed:      1,
	}
}

// Fig33Config models Figure 3.3 (1 ms timeslice).
func Fig33Config() Config {
	c := Fig32Config()
	c.Timeslice = vclock.FromMillis(1)
	c.Seed = 2
	return c
}

// Fig32Residences is the time-in-state sweep for the 10 ms figure.
func Fig32Residences() []float64 {
	return []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 75, 100}
}

// Fig33Residences is the time-in-state sweep for the 1 ms figure.
func Fig33Residences() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 1.5, 2, 2.5, 3, 4, 5, 7, 10}
}

// Point is one sweep sample.
type Point struct {
	ResidenceMs float64
	// PCorrect is the share of trials whose injection the analysis phase
	// proved correct (the experiment record was accepted).
	PCorrect float64
	// PInState is the ground-truth share: trials whose notification delay
	// was shorter than the residence, so the injection did land in the
	// state. PCorrect never exceeds it; the gap is what conservative
	// checking costs.
	PInState float64
	Trials   int
}

// String formats the point as a figure data row.
func (p Point) String() string {
	return fmt.Sprintf("%8.2f ms  %6.4f  (in state %6.4f, n=%d)", p.ResidenceMs, p.PCorrect, p.PInState, p.Trials)
}

// Sweep runs the race experiment for each residence time (milliseconds)
// and returns the measured correct-injection probabilities. The same
// Trials delay draws face every residence, so the ground-truth curve is
// exactly monotone in residence.
func Sweep(cfg Config, residencesMs []float64) ([]Point, error) {
	trials, err := runTrials(cfg, residencesMs)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(residencesMs))
	for i, res := range residencesMs {
		var accepted, inState int
		for _, tr := range trials[i] {
			if tr.accepted {
				accepted++
			}
			if tr.delay < millis(res) {
				inState++
			}
		}
		points[i] = Point{
			ResidenceMs: res,
			PCorrect:    float64(accepted) / float64(cfg.Trials),
			PInState:    float64(inState) / float64(cfg.Trials),
			Trials:      cfg.Trials,
		}
	}
	return points, nil
}

// trial is the outcome of one experiment: one matrix point.
type trial struct {
	delay      time.Duration // the notification delay injected for it
	injections int           // injections the analysis found in its record
	accepted   bool          // every one of them proved correct (§2.5)
}

func millis(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// settle is how long the dweller waits before entering the trigger state,
// so the watcher's view is seeded before there is anything to see.
const settle = time.Millisecond

// runTrials runs len(residencesMs) × cfg.Trials single-experiment studies
// as one matrix — scenarios are the residences, latency profiles the delay
// draws — and returns the trials by residence, then draw.
func runTrials(cfg Config, residencesMs []float64) ([][]trial, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("injectsim: Trials is %d; it must be positive", cfg.Trials)
	}
	if len(residencesMs) == 0 {
		return nil, nil // a matrix without scenarios would still run one
	}
	race, err := newRace()
	if err != nil {
		return nil, err
	}
	model := simnet.Timesliced{Wire: cfg.Wire, Timeslice: cfg.Timeslice, PReady: cfg.PReady, Runnable: cfg.Runnable}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &campaign.Matrix{Name: "injection-accuracy"}
	for d := 0; d < cfg.Trials; d++ {
		m.Latencies = append(m.Latencies, campaign.LatencyProfile{
			Name:   fmt.Sprintf("draw%d", d),
			Remote: model.Sample(rng).Duration(),
		})
	}
	for _, res := range residencesMs {
		m.Scenarios = append(m.Scenarios, campaign.Scenario{Name: fmt.Sprintf("residence%gms", res)})
	}
	// Points are scenario-major: Index / Trials is the residence.
	m.Study = race.study(func(p campaign.Point) time.Duration { return millis(residencesMs[p.Index/cfg.Trials]) })
	c := &campaign.Campaign{
		Name: m.Name,
		// The watcher's clock carries a hidden offset and drift: the
		// analysis has to earn every accepted injection through the
		// convex-hull fit.
		Hosts: []campaign.HostDef{
			{Name: "ha"},
			{Name: "hb", Clock: vclock.ClockConfig{Offset: 3e6, DriftPPM: 40}},
		},
		// The fit's uncertainty is about one round trip; keep it far
		// below the 50 µs margins of the shortest residences.
		Sync:        campaign.SyncConfig{Messages: 4, Transit: time.Microsecond, Spacing: 10 * time.Microsecond},
		VirtualTime: true,
	}
	res, err := campaign.RunMatrix(context.Background(), c, m)
	if err != nil {
		return nil, err
	}
	out := make([][]trial, len(residencesMs))
	for _, pr := range res.Points {
		rec := pr.Study.Records[0]
		if v := rec.Verdict(); v != campaign.Rejected && v != campaign.Accepted {
			return nil, fmt.Errorf("injectsim: point %s: experiment %v, not analysed: %s",
				pr.Point.Name(), v, rec.AnalysisError)
		}
		i := pr.Point.Index / cfg.Trials
		out[i] = append(out[i], trial{
			delay:      pr.Point.Latency.Remote,
			injections: len(rec.Report.Injections),
			accepted:   rec.Accepted,
		})
	}
	return out, nil
}

const (
	dwellerSpec = `
global_state_list
  BEGIN
  X
  Y
  CRASH
  EXIT
end_global_state_list
event_list
  LEAVE
end_event_list
state X notify watcher
  LEAVE Y
state Y notify watcher
state CRASH
state EXIT
`
	watcherSpec = `
global_state_list
  BEGIN
  WATCH
  CRASH
  EXIT
end_global_state_list
event_list
end_event_list
state WATCH
state CRASH
state EXIT
`
)

// race holds what every trial's study shares.
type race struct {
	dweller, watcher *spec.StateMachine
	hit              faultexpr.Spec
}

func newRace() (*race, error) {
	dweller, err := spec.ParseStateMachine(dwellerSpec)
	if err != nil {
		return nil, err
	}
	watcher, err := spec.ParseStateMachine(watcherSpec)
	if err != nil {
		return nil, err
	}
	hit, _, err := faultexpr.ParseSpecLine("hit (dweller:X) once")
	if err != nil {
		return nil, err
	}
	return &race{dweller: dweller, watcher: watcher, hit: hit}, nil
}

// study is the trials' template: the dweller (host ha) holds state X for
// the point's residence; the watcher (host hb) carries `hit (dweller:X)
// once`, which its fault parser fires when the X notification reaches it,
// the point's remote delay later.
func (r *race) study(residence func(campaign.Point) time.Duration) *campaign.Study {
	return &campaign.Study{
		Nodes: []core.NodeDef{
			{Nickname: "dweller", Spec: r.dweller},
			{Nickname: "watcher", Spec: r.watcher, Faults: []faultexpr.Spec{r.hit}},
		},
		// The watcher starts first, so its view is seeded empty.
		Placement:   []spec.NodeEntry{{Nickname: "watcher", Host: "hb"}, {Nickname: "dweller", Host: "ha"}},
		Experiments: 1,
		NewApp: func(p campaign.Point, nick string) (core.App, error) {
			residence, delay := residence(p), p.Latency.Remote
			if nick == "dweller" {
				return probe.NewInstrumented(func(h *core.Handle) {
					h.Sleep(settle)
					h.NotifyEvent("X")
					h.Sleep(residence)
					h.NotifyEvent("LEAVE")
				}), nil
			}
			return probe.NewInstrumented(func(h *core.Handle) {
				h.NotifyEvent("WATCH")
				// Outlive both notifications: an exited machine gets none.
				h.Sleep(settle + residence + delay + settle)
			}).On(r.hit.Name, probe.NoteFault()), nil
		},
	}
}

// CrossoverMs returns the smallest sampled residence with PCorrect >= level
// (e.g. 0.95), or -1 when never reached — the "couple of timeslices" claim
// is CrossoverMs(points, 0.95) <= 2-3 timeslices.
func CrossoverMs(points []Point, level float64) float64 {
	for _, p := range points {
		if p.PCorrect >= level {
			return p.ResidenceMs
		}
	}
	return -1
}
