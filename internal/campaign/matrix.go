package campaign

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/faultexpr"
)

// The scenario matrix engine: one configuration fans out into
// {scenarios × latency profiles × seeds} studies, sharded across the
// campaign's worker pool. Each cell ("point") is a full study — sync
// mini-phases, runtime phase, pipelined analysis — whose node definitions
// are built fresh (applications hold state) and then overlaid with the
// scenario's chaos fault entries.

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
}

// Name renders "scenario/profile/seed@N".
func (p Point) Name() string {
	return fmt.Sprintf("%s/%s/seed%d", p.Scenario.Name, p.Latency.Name, p.Seed)
}

// Matrix expands into studies. Zero-valued axes default to a single
// neutral entry, so a matrix with only scenarios is legal.
type Matrix struct {
	Name      string
	Scenarios []Scenario
	Latencies []LatencyProfile
	Seeds     []int64
	// Build constructs a fresh base study for a point. It is called once
	// per point, possibly concurrently; it must return a study whose node
	// definitions (application instances included) are private to the
	// point. The point's seed should drive the applications' randomness.
	// Every point must carry the same Experiments count — status queries
	// materialize one point and trust it for the rest.
	Build func(p Point) (*Study, error)
}

// Points enumerates the matrix cells in deterministic order:
// scenario-major, then latency profile, then seed.
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
	var pts []Point
	for _, sc := range scenarios {
		for _, lp := range latencies {
			for _, seed := range seeds {
				pts = append(pts, Point{Index: len(pts), Scenario: sc, Latency: lp, Seed: seed})
			}
		}
	}
	return pts
}

// buildStudy materializes one point: the base study from Build, the
// scenario's fault entries overlaid onto the matching node definitions,
// and the chaos seed set from the point seed.
func (m *Matrix) buildStudy(p Point) (*Study, error) {
	if m.Build == nil {
		return nil, fmt.Errorf("campaign: matrix %q has no Build function", m.Name)
	}
	st, err := m.Build(p)
	if err != nil {
		return nil, fmt.Errorf("campaign: matrix point %s: %w", p.Name(), err)
	}
	if err := p.Scenario.ApplyTo(st); err != nil {
		return nil, fmt.Errorf("campaign: matrix point %s: %w", p.Name(), err)
	}
	st.ChaosSeed = p.Seed
	if st.Name == "" {
		st.Name = p.Name()
	}
	return st, nil
}

// ApplyTo merges the scenario's fault entries into the study's node
// definitions and re-derives notify lists (the overlay may watch machines
// the base study's lists do not cover). The study's node definitions are
// modified in place; apply only to definitions private to this study.
func (s Scenario) ApplyTo(st *Study) error {
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
		st.Nodes[i].Faults = append(st.Nodes[i].Faults, sf.Spec)
	}
	if len(s.Faults) > 0 {
		core.AutoNotify(st.Nodes)
	}
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
}

// Point returns the named point's result, or nil.
func (r *MatrixResult) Point(name string) *PointResult {
	for _, p := range r.Points {
		if p != nil && p.Point.Name() == name {
			return p
		}
	}
	return nil
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

// RunMatrix executes every point of the matrix on c's testbed
// configuration, sharding points across the campaign's worker pool: up to
// Workers points run concurrently, and each point's own experiment pool is
// sized so the total stays at Workers. Results land at their point index,
// so any worker count orders results identically. The campaign's Studies
// field is ignored; hosts, runtime, sync, and check configuration apply to
// every point, with the point's latency profile overriding the runtime's
// notification delays. No further points are dispatched after ctx is
// cancelled, in-flight points drain, and ctx.Err() is returned.
func RunMatrix(ctx context.Context, c *Campaign, m *Matrix) (_ *MatrixResult, err error) {
	if err := Validate(c, m); err != nil {
		return nil, err
	}
	pts := m.Points()
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := workers
	if outer > len(pts) {
		outer = len(pts)
	}
	// Split the pool: the first workers%outer point-workers get one extra
	// inner executor so the total stays at Workers even when it does not
	// divide evenly.
	inner := workers / outer
	extra := workers % outer

	res := &MatrixResult{Name: m.Name, Points: make([]*PointResult, len(pts))}
	var (
		errOnce  sync.Once
		firstErr error
		done     = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}
	// Cancellation stops the point dispatcher like any first failure
	// (in-flight points see the same ctx and drain their own experiments
	// into the journal). The watcher is joined before firstErr is read —
	// its fail() write has no other happens-before edge to that read.
	stopWatch := onCancel(ctx, func() { fail(ctx.Err()) })
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range pts {
			select {
			case idxCh <- i:
			case <-done:
				return // first failure aborts: don't run points to discard them
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		innerW := inner
		if w < extra {
			innerW++
		}
		go func() {
			defer wg.Done()
			for i := range idxCh {
				p := pts[i]
				st, err := m.buildStudy(p)
				if err != nil {
					fail(err)
					return
				}
				// The point's derived campaign (latency overrides applied)
				// is what fingerprints the journaled records: resuming with
				// a changed profile must not reuse them.
				pc := pointCampaign(c, m, p, innerW)
				sr, err := runStudyOn(ctx, pc, st, j.study(pc, st, p.Name()))
				if err != nil {
					fail(fmt.Errorf("campaign: matrix point %s: %w", p.Name(), err))
					return
				}
				res.Points[i] = &PointResult{Point: p, Study: sr}
			}
		}()
	}
	wg.Wait()
	stopWatch()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// pointCampaign derives one point's campaign: a shallow copy so per-point
// runtime tweaks stay local, with the point's latency profile overriding
// the notification delays only when the matrix declared an explicit
// Latencies axis — the fabricated "default" profile inherits the
// campaign's configured delays.
func pointCampaign(c *Campaign, m *Matrix, p Point, inner int) *Campaign {
	pc := *c
	pc.Workers = inner
	pc.matrixPoint = p.Name()
	if len(m.Latencies) > 0 {
		pc.Runtime.LocalDelay = p.Latency.Local
		pc.Runtime.RemoteDelay = p.Latency.Remote
	}
	return &pc
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
