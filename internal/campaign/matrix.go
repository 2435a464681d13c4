package campaign

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/faultexpr"
)

// The scenario matrix engine: one configuration fans out into
// {scenarios × latency profiles × seeds} studies, run through one
// pipeline on the campaign's workers. Each cell ("point") is a full study —
// sync mini-phases, runtime phase, analysis — described by the matrix's
// template overlaid with the scenario's chaos fault entries; a testbed
// builds its applications for the point when it is bound to it.

// ScenarioFault attaches one fault specification entry — typically an
// action fault such as "netsplit (m:LEAD) once partition(h1|h2,h3) 50ms" —
// to the named machine.
type ScenarioFault struct {
	Machine string
	Spec    faultexpr.Spec
}

// Scenario is one named chaos configuration: fault entries merged into
// every study expanded for it. An empty fault list is the baseline.
type Scenario struct {
	Name   string
	Faults []ScenarioFault
}

// ParseScenarioFaults parses machine-prefixed fault lines
// ("<machine> <name> <expr> <once|always> [action(args) [for]]"), one per
// line, into scenario faults.
func ParseScenarioFaults(doc string) ([]ScenarioFault, error) {
	var out []ScenarioFault
	for i, line := range splitLines(doc) {
		machine, rest, ok := cutFirstField(line)
		if !ok {
			return nil, fmt.Errorf("campaign: scenario fault line %d: want '<machine> <name> <expr> <mode> [action]'", i+1)
		}
		fs, present, err := faultexpr.ParseSpecLine(rest)
		if err != nil || !present {
			return nil, fmt.Errorf("campaign: scenario fault line %d: %v", i+1, err)
		}
		out = append(out, ScenarioFault{Machine: machine, Spec: fs})
	}
	return out, nil
}

// LatencyProfile names one daemon-path latency configuration: the injected
// same-host (IPC) and cross-host (TCP) notification delays of the chosen
// design (§3.4.2).
type LatencyProfile struct {
	Name   string
	Local  time.Duration
	Remote time.Duration
}

// Point is one cell of the expanded matrix.
type Point struct {
	Index    int
	Scenario Scenario
	Latency  LatencyProfile
	Seed     int64
	scenario int // Scenario's index in the expanded scenario axis
	profile  int // Latency's index in the expanded latency axis
}

// Name renders "scenario/profile/seedN" from the point's fields.
func (p Point) Name() string {
	var b [64]byte
	return string(strconv.AppendInt(append(append(append(append(b[:0], p.Scenario.Name...), '/'), p.Latency.Name...), "/seed"...), p.Seed, 10))
}

// Matrix expands into studies. Zero-valued axes default to a single
// neutral entry, so a matrix with only scenarios is legal.
type Matrix struct {
	Name      string
	Scenarios []Scenario
	Latencies []LatencyProfile
	Seeds     []int64
	// Study is the template every point shares. A point runs it overlaid
	// with the point's scenario (Scenario.ApplyTo), with the point's seed
	// as ChaosSeed and, when it has no Name, the point's name; NewApp gets
	// the point, whose seed should drive the applications' randomness.
	Study *Study
}

// Points enumerates the matrix cells in deterministic order:
// scenario-major, then latency profile, then seed. A run expands its
// matrix once (validate) and passes the points on, with their names.
func (m *Matrix) Points() []Point {
	scenarios := m.Scenarios
	if len(scenarios) == 0 {
		scenarios = []Scenario{{Name: "baseline"}}
	}
	latencies := m.Latencies
	if len(latencies) == 0 {
		latencies = []LatencyProfile{{Name: "default"}}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	pts := make([]Point, 0, len(scenarios)*len(latencies)*len(seeds))
	for si, sc := range scenarios {
		for li, lp := range latencies {
			for _, seed := range seeds {
				pts = append(pts, Point{Index: len(pts), Scenario: sc, Latency: lp, Seed: seed, scenario: si, profile: li})
			}
		}
	}
	return pts
}

// scenarioStudies overlays each scenario of pts, the matrix's points, onto
// the template, by scenario index, and puts each overlay through the study
// check.
func (m *Matrix) scenarioStudies(c *Campaign, pts []Point) ([]*Study, error) {
	if m.Study == nil {
		return nil, fmt.Errorf("campaign: matrix %q has no template Study", m.Name)
	}
	var out []*Study
	for i := range pts {
		p := &pts[i]
		if p.scenario < len(out) {
			continue // points are scenario-major: this scenario has its overlay
		}
		st := *m.Study
		if err := p.Scenario.ApplyTo(&st); err != nil {
			return nil, fmt.Errorf("campaign: matrix %q: %w", m.Name, err)
		}
		if err := checkStudy(c, &st); err != nil {
			return nil, fmt.Errorf("campaign: matrix %q: scenario %q: %w", m.Name, p.Scenario.Name, err)
		}
		out = append(out, &st)
	}
	return out, nil
}

// pointStudy is the study of point p, named name (p.Name()), given its
// scenario's overlay.
func pointStudy(overlay *Study, p *Point, name string) Study {
	st := *overlay
	st.ChaosSeed = p.Seed
	if st.Name == "" {
		st.Name = name
	}
	return st
}

// ApplyTo merges the scenario's fault entries into the study's node
// definitions and re-derives notify lists (the overlay may watch machines
// the base study's lists do not cover). The study gets its own node list
// and fault lists, so definitions it shares are never written.
func (s Scenario) ApplyTo(st *Study) error {
	if len(s.Faults) == 0 {
		return nil
	}
	st.Nodes = slices.Clone(st.Nodes)
	byNick := make(map[string]int, len(st.Nodes))
	for i, def := range st.Nodes {
		byNick[def.Nickname] = i
	}
	for _, sf := range s.Faults {
		i, ok := byNick[sf.Machine]
		if !ok {
			return fmt.Errorf("campaign: scenario %q fault %q names unknown machine %q",
				s.Name, sf.Spec.Name, sf.Machine)
		}
		st.Nodes[i].Faults = append(slices.Clip(st.Nodes[i].Faults), sf.Spec)
	}
	core.AutoNotify(st.Nodes)
	return nil
}

// PointResult pairs a matrix point with its study outcome.
type PointResult struct {
	Point Point
	Study *StudyResult
}

// MatrixResult is a matrix campaign's complete output, in point order.
type MatrixResult struct {
	Name   string
	Points []*PointResult
	// JournalOnly holds the verdicts, sorted by key, of the records a
	// resumed journal keeps that this run did not cover (a point since
	// dropped from the matrix, say); a report over the run counts them.
	JournalOnly []RecordSummary
}

// AcceptedTotal counts accepted experiments across all points.
func (r *MatrixResult) AcceptedTotal() (accepted, total int) {
	for _, p := range r.Points {
		if p == nil || p.Study == nil {
			continue
		}
		for _, rec := range p.Study.Records {
			if rec == nil {
				continue
			}
			total++
			if rec.Accepted {
				accepted++
			}
		}
	}
	return accepted, total
}

// RunMatrix executes every point of the matrix through one pipeline
// (runPipeline): with at least as many points as Workers, each worker
// claims whole points and keeps one pooled testbed for the call, bound to
// each point it claims; with fewer, a point's indices are shared by its
// share of the workers. A socket-transport point runs on a loopback
// cluster of its own, up to Workers of them at once. Validate checks every point's study before the journal
// opens, and a fully journaled point builds no application. Results land
// at their point index. The campaign's Studies field is ignored; its other
// configuration applies to every point, the point's latency profile
// overriding the notification delays. After ctx is cancelled nothing more
// is dispatched, in-flight experiments drain, and ctx.Err() is returned.
func RunMatrix(ctx context.Context, c *Campaign, m *Matrix) (_ *MatrixResult, err error) {
	x, err := validate(c, m)
	if err != nil {
		return nil, err
	}
	pts := x.pts
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	pl := newPool(c)
	defer pl.close()
	profileFP := profileFingerprints(c, m, pts)
	units := make([]unit, len(pts))
	for k := range pts {
		p, u := &pts[k], &units[k]
		name := x.names[k]
		u.pc, u.ps = pointCampaign(c, m, p), pointStudy(x.overlays[p.scenario], p, name)
		u.set(&u.pc, &u.ps, j.study(profileFP[p.profile], &u.ps, name), "")
	}
	if fault, err := runPipeline(ctx, units, poolWidth(c), pl.open, pl); fault != nil {
		return nil, fmt.Errorf("campaign: matrix point %s: %w", fault.prog.point, err)
	} else if err != nil {
		return nil, err
	}
	res := &MatrixResult{Name: m.Name, Points: make([]*PointResult, len(pts))}
	points, studies := make([]PointResult, len(pts)), make([]StudyResult, len(pts))
	for k := range pts {
		studies[k] = StudyResult{Name: units[k].st.Name, Records: units[k].records}
		points[k], res.Points[k] = PointResult{Point: pts[k], Study: &studies[k]}, &points[k]
	}
	res.JournalOnly = j.journalOnly()
	return res, nil
}

// profileFingerprints returns each latency profile's campaign
// fingerprint, by profile index, from the profile's first point of pts,
// the matrix's points: a point's derived campaign (latency overrides
// applied) fingerprints its records, so a changed profile is not resumed.
func profileFingerprints(c *Campaign, m *Matrix, pts []Point) []string {
	var fps []string
	for i := range pts {
		if p := &pts[i]; p.profile == len(fps) {
			pc := pointCampaign(c, m, p)
			fps = append(fps, campaignFingerprint(&pc))
		}
	}
	return fps
}

// pointCampaign derives the campaign of point p: a shallow copy so
// per-point runtime tweaks stay local, with the point's latency profile
// overriding the notification delays only when the matrix declared an
// explicit Latencies axis — the fabricated "default" profile inherits the
// campaign's configured delays.
func pointCampaign(c *Campaign, m *Matrix, p *Point) Campaign {
	pc := *c
	pc.point = p
	if len(m.Latencies) > 0 {
		pc.Runtime.LocalDelay = p.Latency.Local
		pc.Runtime.RemoteDelay = p.Latency.Remote
	}
	return pc
}

func splitLines(doc string) []string {
	var out []string
	for _, raw := range strings.Split(doc, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		out = append(out, line)
	}
	return out
}

func cutFirstField(s string) (field, rest string, ok bool) {
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return s, "", false
	}
	return s[:i], strings.TrimSpace(s[i:]), true
}
