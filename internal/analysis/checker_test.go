package analysis

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/clocksync"
	"repro/internal/faultexpr"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// TestSamplePointsSegmentAfterLo: an injection interval that starts exactly
// at a breakpoint must have the open segment just after that breakpoint
// evaluated too. m1 and m2 (h1) enter A at [0,0] and B at [10,20]; an
// injection on m3 (h2) projects to [10,25]. At 10 both are provably in A,
// from 20 on both in B, but on (10,20) neither is known — the true
// transitions could be at 12 and 18, making the expression false at 15 —
// so both modes must reject.
func TestSamplePointsSegmentAfterLo(t *testing.T) {
	change := func(m, state string, lo, hi vclock.Ticks) Event {
		return Event{Machine: m, Kind: timeline.StateChange, State: state, Host: "h1", Local: lo, Ref: Interval{Lo: lo, Hi: hi}}
	}
	g := &Global{
		Reference: "h1",
		Machines:  []string{"m1", "m2", "m3"},
		Events: []Event{
			change("m1", "A", 0, 0),
			change("m2", "A", 0, 0),
			change("m1", "B", 10, 20),
			change("m2", "B", 10, 20),
			{Machine: "m3", Kind: timeline.FaultInjection, Fault: "f", Host: "h2", Local: 17, Ref: Interval{Lo: 10, Hi: 25}},
		},
	}
	expr := faultexpr.MustParse("((m1:A) & (m2:A)) | ((m1:B) & (m2:B))")
	if got := statelineOf(g).EvalAt(expr, 15); got != Unknown {
		t.Fatalf("EvalAt(expr, 15) = %v, want unknown", got)
	}
	specs := map[string][]faultexpr.Spec{"m3": {{Name: "f", Expr: expr}}}
	for _, opts := range []CheckOptions{{}, {ProjectionOnly: true}} {
		if rep := CheckExperiment(g, specs, opts); rep.Accepted {
			t.Errorf("ProjectionOnly=%v: an injection whose expression is unknown on (10,20) was accepted: %+v",
				opts.ProjectionOnly, rep.Injections)
		}
	}
}

// checkerGen draws the small experiments FuzzCheckerMatchesOracle and the
// reuse tests run: 2–4 machines on 1–3 hosts, ticks below 200, change
// windows of random width, machines on one host that change at exactly the
// same instants, injections, and And/Or/Not expressions up to depth 3.
type checkerGen struct{ rng *rand.Rand }

var genStates = []string{"A", "B", "C"}

func (gen checkerGen) machines() []string {
	n := 2 + gen.rng.Intn(3)
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("m%d", i+1)
	}
	return ms
}

func (gen checkerGen) hostOf(machines []string) map[string]string {
	hosts := 1 + gen.rng.Intn(3)
	out := make(map[string]string, len(machines))
	for _, m := range machines {
		out[m] = fmt.Sprintf("h%d", 1+gen.rng.Intn(hosts))
	}
	return out
}

// expr draws an expression over machines (plus one that never runs, m9).
func (gen checkerGen) expr(machines []string, depth int) faultexpr.Expr {
	if depth == 0 || gen.rng.Intn(3) == 0 {
		m := "m9"
		if gen.rng.Intn(8) != 0 {
			m = machines[gen.rng.Intn(len(machines))]
		}
		return faultexpr.Atom{Machine: m, State: genStates[gen.rng.Intn(len(genStates))]}
	}
	switch gen.rng.Intn(3) {
	case 0:
		return faultexpr.Not{X: gen.expr(machines, depth-1)}
	case 1:
		return faultexpr.And{L: gen.expr(machines, depth-1), R: gen.expr(machines, depth-1)}
	default:
		return faultexpr.Or{L: gen.expr(machines, depth-1), R: gen.expr(machines, depth-1)}
	}
}

// specs gives each machine faults f and g, each with probability 3/4, so
// some injections have no specification.
func (gen checkerGen) specs(machines []string) map[string][]faultexpr.Spec {
	out := make(map[string][]faultexpr.Spec, len(machines))
	for _, m := range machines {
		for _, name := range []string{"f", "g"} {
			if gen.rng.Intn(4) != 0 {
				out[m] = append(out[m], faultexpr.Spec{Name: name, Expr: gen.expr(machines, 3)})
			}
		}
	}
	return out
}

// global draws a Global directly: every event's window is its own, so
// zero-width and wide windows mix on one host. With probability 1/3 a
// change copies an earlier change of another machine on the same host,
// window and all; an injection's window mostly starts or ends on a
// change's bound. Events are ordered by (midpoint, machine), as Build orders them.
func (gen checkerGen) global() (*Global, map[string][]faultexpr.Spec) {
	machines := gen.machines()
	hostOf := gen.hostOf(machines)
	g := &Global{Reference: "h1", Machines: machines}
	window := func() Interval {
		lo := vclock.Ticks(gen.rng.Intn(200))
		w := vclock.Ticks(0)
		if gen.rng.Intn(3) != 0 {
			w = vclock.Ticks(gen.rng.Intn(30))
		}
		return Interval{Lo: lo, Hi: min(lo+w, 199)}
	}
	var changes []Event
	for _, m := range machines {
		for n := gen.rng.Intn(5); n > 0; n-- {
			ev := Event{Machine: m, Kind: timeline.StateChange, Host: hostOf[m], State: genStates[gen.rng.Intn(len(genStates))]}
			var twins []Event
			for _, c := range changes {
				if c.Host == ev.Host && c.Machine != m {
					twins = append(twins, c)
				}
			}
			if len(twins) > 0 && gen.rng.Intn(3) == 0 {
				twin := twins[gen.rng.Intn(len(twins))]
				ev.Ref, ev.Local = twin.Ref, twin.Local
			} else {
				ev.Ref = window()
				ev.Local = ev.Ref.Mid()
			}
			changes = append(changes, ev)
		}
	}
	g.Events = append(g.Events, changes...)
	for n := gen.rng.Intn(4); n > 0; n-- {
		m := machines[gen.rng.Intn(len(machines))]
		iv := window()
		if len(changes) > 0 && gen.rng.Intn(4) != 0 {
			c := changes[gen.rng.Intn(len(changes))]
			anchor := c.Ref.Lo
			if gen.rng.Intn(2) == 0 {
				anchor = c.Ref.Hi
			}
			if gen.rng.Intn(2) == 0 {
				iv = Interval{Lo: anchor, Hi: min(anchor+(iv.Hi-iv.Lo), 199)}
			} else {
				iv = Interval{Lo: max(anchor-(iv.Hi-iv.Lo), 0), Hi: anchor}
			}
		}
		fault := []string{"f", "g"}[gen.rng.Intn(2)]
		g.Events = append(g.Events, Event{Machine: m, Kind: timeline.FaultInjection, Fault: fault, Host: hostOf[m], Local: iv.Mid(), Ref: iv})
	}
	slices.SortStableFunc(g.Events, func(a, b Event) int {
		if a.Ref.Mid() != b.Ref.Mid() {
			return int(a.Ref.Mid() - b.Ref.Mid())
		}
		return strings.Compare(a.Machine, b.Machine)
	})
	return g, gen.specs(machines)
}

// locals draws local timelines and per-host bounds for Build: hosts with
// uncertain offsets and rates, so one host's windows widen with time, and
// a mid-timeline host change now and then.
func (gen checkerGen) locals() ([]*timeline.Local, map[string]clocksync.Bounds) {
	machines := gen.machines()
	hostOf := gen.hostOf(machines)
	bounds := map[string]clocksync.Bounds{"h1": clocksync.Identity()}
	for _, h := range []string{"h2", "h3"} {
		a := float64(gen.rng.Intn(20))
		b := float64(gen.rng.Intn(5)) / 100
		bounds[h] = clocksync.Bounds{AlphaLo: -a, AlphaHi: a / 2, BetaLo: 1 - b, BetaHi: 1 + b}
	}
	var locals []*timeline.Local
	for _, m := range machines {
		l := &timeline.Local{Meta: timeline.Meta{Owner: m}}
		host := hostOf[m]
		l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.HostChange, Host: host})
		at := vclock.Ticks(0)
		for n := gen.rng.Intn(8); n > 0; n-- {
			at += vclock.Ticks(gen.rng.Intn(30))
			if gen.rng.Intn(8) == 0 {
				host = fmt.Sprintf("h%d", 1+gen.rng.Intn(3))
				l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.HostChange, Host: host})
			}
			e := timeline.Entry{Kind: timeline.StateChange, NewState: genStates[gen.rng.Intn(len(genStates))], Event: "e", Host: host, Time: at}
			switch gen.rng.Intn(5) {
			case 0:
				e = timeline.Entry{Kind: timeline.FaultInjection, Fault: "f", Host: host, Time: at}
			case 1:
				e = timeline.Entry{Kind: timeline.Note, Event: "note", Host: host, Time: at}
			}
			l.Entries = append(l.Entries, e)
		}
		l.Faults = gen.specs(machines)[m]
		locals = append(locals, l)
	}
	if gen.rng.Intn(10) == 0 {
		locals = append(locals, locals[0]) // a duplicate owner: Build must refuse
	}
	return locals, bounds
}

// oracleTri evaluates e at tick t without spans, breakpoints or sample
// points: machine M is provably in S at t iff some state change i of M
// enters S with changes[i].Ref.Hi <= t <= changes[i+1].Ref.Lo (the last
// change holds forever). Where two qualifying changes meet — t is the
// instant of a zero-width transition — the earlier one decides, which is
// the check's convention.
func oracleTri(g *Global, e faultexpr.Expr, t vclock.Ticks) Tri {
	switch x := e.(type) {
	case faultexpr.Atom:
		var changes []Event
		for _, ev := range g.Events {
			if ev.Machine == x.Machine && ev.Kind == timeline.StateChange && slices.Contains(g.Machines, ev.Machine) {
				changes = append(changes, ev)
			}
		}
		for i, c := range changes {
			if c.Ref.Hi <= t && (i+1 == len(changes) || t <= changes[i+1].Ref.Lo) {
				if c.State == x.State {
					return True
				}
				return False
			}
		}
		return Unknown
	case faultexpr.Not:
		return triNot(oracleTri(g, x.X, t))
	case faultexpr.And:
		return triAnd(oracleTri(g, x.L, t), oracleTri(g, x.R, t))
	case faultexpr.Or:
		return triOr(oracleTri(g, x.L, t), oracleTri(g, x.R, t))
	}
	return Unknown
}

// checkAgainstOracle asserts the §2.5 property on g: under ProjectionOnly
// an injection is accepted exactly when its expression is True at every
// integer tick of its interval.
func checkAgainstOracle(t *testing.T, g *Global, specs map[string][]faultexpr.Spec, rep *Report) {
	t.Helper()
	k := 0
	for _, ev := range g.Events {
		if ev.Kind != timeline.FaultInjection {
			continue
		}
		want := false
		for _, s := range specs[ev.Machine] {
			if s.Name != ev.Fault {
				continue
			}
			want = true
			for tick := ev.Ref.Lo; tick <= ev.Ref.Hi && want; tick++ {
				want = oracleTri(g, s.Expr, tick) == True
			}
			break
		}
		if got := rep.Injections[k].Correct; got != want {
			t.Fatalf("injection %s:%s at %s: checker says %v, tick-by-tick oracle %v\n%s",
				ev.Machine, ev.Fault, ev.Ref, got, want, dumpGlobal(g, specs))
		}
		k++
	}
}

func dumpGlobal(g *Global, specs map[string][]faultexpr.Spec) string {
	var b strings.Builder
	for _, e := range g.Events {
		fmt.Fprintf(&b, "  %s %v state=%s fault=%s host=%s [%d,%d]\n", e.Machine, e.Kind, e.State, e.Fault, e.Host, e.Ref.Lo, e.Ref.Hi)
	}
	for _, m := range g.Machines {
		for _, s := range specs[m] {
			fmt.Fprintf(&b, "  spec %s:%s = %s\n", m, s.Name, s.Expr)
		}
	}
	return b.String()
}

// FuzzCheckerMatchesOracle generates, from one seed, a sequence of small
// experiments and runs them all on one Checker. It asserts that:
//   - under ProjectionOnly an injection is accepted exactly when a
//     brute-force, tick-by-tick oracle finds its expression True at every
//     integer tick of its interval;
//   - the reused Checker's reports, in both modes, deep-equal a fresh
//     CheckExperiment's;
//   - the Globals the reused Checker builds deep-equal a fresh Build's and
//     the stable-sort reference ordering's, and it refuses what Build
//     refuses.
//
// Mutation check: with samplePoints searching breakpoints > iv.Lo again
// (skipping the segment just after Lo when Lo is a breakpoint), 5 of the
// 64 seeds fail.
func FuzzCheckerMatchesOracle(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		gen := checkerGen{rng: rand.New(rand.NewSource(seed))}
		var reused Checker
		for step := 0; step < 16; step++ {
			locals, bounds := gen.locals()
			built, err := reused.Build("h1", bounds, locals)
			fresh, freshErr := Build("h1", bounds, locals)
			if (err != nil) != (freshErr != nil) {
				t.Fatalf("step %d: reused Build error %v, fresh Build error %v", step, err, freshErr)
			}
			globals := []*Global{}
			specs := []map[string][]faultexpr.Spec{}
			if err == nil {
				if !reflect.DeepEqual(built, fresh) {
					t.Fatalf("step %d: reused Build differs from a fresh one:\n got %+v\nwant %+v", step, built, fresh)
				}
				if ref := buildReference("h1", bounds, locals); !reflect.DeepEqual(built, ref) {
					t.Fatalf("step %d: Build differs from the stable-sort reference:\n got %+v\nwant %+v", step, built, ref)
				}
				globals = append(globals, built)
				specs = append(specs, SpecsFromLocals(locals))
			}
			g, s := gen.global()
			globals, specs = append(globals, g), append(specs, s)
			for i, g := range globals {
				for _, opts := range []CheckOptions{{}, {ProjectionOnly: true}, {RequireTriggered: true}} {
					got := reused.Check(g, specs[i], opts)
					want := CheckExperiment(g, specs[i], opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d, %+v: reused Check differs from a fresh one:\n got %+v\nwant %+v", step, opts, got, want)
					}
					if opts.ProjectionOnly {
						checkAgainstOracle(t, g, specs[i], got)
					}
				}
			}
		}
	})
}

// marshalled is the byte form of a Global and a Report: the §5.7 text and
// the journal's JSON.
func marshalled(t *testing.T, g *Global, rep *Report) string {
	t.Helper()
	text, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(text) + "\n" + string(js)
}

// sharesArray reports whether two slices' backing arrays overlap.
func sharesArray(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Cap() == 0 || vb.Cap() == 0 {
		return false
	}
	size := va.Type().Elem().Size()
	aLo, bLo := va.Pointer(), vb.Pointer()
	aHi, bHi := aLo+uintptr(va.Cap())*size, bLo+uintptr(vb.Cap())*size
	return aLo < bHi && bLo < aHi
}

// TestCheckerReuseDoesNotAlias: a Global and Report a Checker returned stay
// byte-identical after the same Checker builds and checks three more
// experiments, and share no array with its scratch. The first experiment
// is in turn a one-machine Global (whose merge has a single list), one
// without injections (Report.Injections stays nil: the journal says null),
// and a general one.
func TestCheckerReuseDoesNotAlias(t *testing.T) {
	oneMachine := makeLocal("solo", []faultexpr.Spec{{Name: "f", Expr: faultexpr.MustParse("solo:A")}}, []timeline.Entry{
		{Kind: timeline.HostChange, Host: "h1"},
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 10},
		{Kind: timeline.FaultInjection, Fault: "f", Host: "h1", Time: 20},
		{Kind: timeline.StateChange, Event: "e2", NewState: "B", Host: "h1", Time: 30},
	})
	noInjection := makeLocal("quiet", nil, []timeline.Entry{
		{Kind: timeline.HostChange, Host: "h1"},
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 10},
	})
	bounds := map[string]clocksync.Bounds{"h1": clocksync.Identity(), "h2": narrow(5), "h3": narrow(9)}
	firsts := map[string][]*timeline.Local{
		"one machine":  {oneMachine},
		"no injection": {noInjection, makeLocal("calm", nil, nil)},
	}
	gen := checkerGen{rng: rand.New(rand.NewSource(3))}
	for {
		locals, b := gen.locals()
		if _, err := Build("h1", b, locals); err == nil && len(locals) > 2 {
			firsts["general"], bounds = locals, b
			break
		}
	}
	for name, first := range firsts {
		t.Run(name, func(t *testing.T) {
			var c Checker
			g, err := c.Build("h1", bounds, first)
			if err != nil {
				t.Fatal(err)
			}
			rep := c.Check(g, c.SpecsFromLocals(first), CheckOptions{})
			if name == "no injection" && rep.Injections != nil {
				t.Errorf("Report.Injections = %#v, want nil", rep.Injections)
			}
			before := marshalled(t, g, rep)
			for i := 0; i < 3; i++ {
				locals, b := gen.locals()
				if later, err := c.Build("h1", b, locals); err == nil {
					c.Check(later, c.SpecsFromLocals(locals), CheckOptions{ProjectionOnly: i == 1})
				}
				lg, ls := gen.global()
				c.Check(lg, ls, CheckOptions{RequireTriggered: i == 2})
			}
			if after := marshalled(t, g, rep); after != before {
				t.Fatalf("a returned Global/Report changed under reuse:\nbefore %s\nafter  %s", before, after)
			}
			if sharesArray(g.Events, c.buf) || sharesArray(g.Events, c.sl.changeBuf) {
				t.Errorf("Global.Events shares an array with the checker's scratch")
			}
			if sharesArray(g.Machines, c.lists) {
				t.Errorf("Global.Machines shares an array with the checker's scratch")
			}
		})
	}
}

// TestWarmCheckerAllocatesOnlyWhatItReturns: once warmed, a Checker's
// Build+Check of an election-shaped experiment allocates only what a
// record keeps — the Global, its Events and Machines, the Report and its
// Injections.
func TestWarmCheckerAllocatesOnlyWhatItReturns(t *testing.T) {
	var c Checker
	bounds, locals := electionLocals(100, 30_000, 0)
	allocs := testing.AllocsPerRun(100, func() {
		g, err := c.Build("h1", bounds, locals)
		if err != nil {
			t.Fatal(err)
		}
		if rep := c.Check(g, c.SpecsFromLocals(locals), CheckOptions{}); !rep.Accepted {
			t.Fatalf("report = %+v", rep)
		}
	})
	if allocs > 5 {
		t.Fatalf("a warm Build+Check allocates %.1f objects, want at most 5", allocs)
	}
}
