package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/clocksync"
	"repro/internal/faultexpr"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

// narrow returns bounds with a +/- w uncertainty around an exact clock
// (alpha 0, beta 1), convenient for constructing test geometries.
func narrow(w float64) clocksync.Bounds {
	return clocksync.Bounds{AlphaLo: -w, AlphaHi: w, BetaLo: 1, BetaHi: 1}
}

func makeLocal(owner string, faults []faultexpr.Spec, entries []timeline.Entry) *timeline.Local {
	return &timeline.Local{
		Meta: timeline.Meta{
			Owner:        owner,
			GlobalStates: []string{"BEGIN", "A", "B", "C", "LEAD", "FOLLOW", "ELECT", "CRASH", "EXIT"},
			Events:       []string{"e1", "e2", "e3", "go"},
			Faults:       faults,
			Hosts:        []string{"h1", "h2"},
		},
		Entries: entries,
	}
}

// statelineOf derives g's stateline the way Check does.
func statelineOf(g *Global) *Stateline {
	s := new(Stateline)
	s.reset(g)
	return s
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 30}
	if iv.Mid() != 20 {
		t.Errorf("Mid=%d", iv.Mid())
	}
	if iv.String() == "" {
		t.Error("empty String()")
	}
}

func TestBuildProjectsAndSorts(t *testing.T) {
	bounds := map[string]clocksync.Bounds{
		"h1": clocksync.Identity(),
		"h2": {AlphaLo: 1000, AlphaHi: 1000, BetaLo: 1, BetaHi: 1}, // h2 clock runs 1000 ahead
	}
	l1 := makeLocal("sm1", nil, []timeline.Entry{
		{Kind: timeline.HostChange, Host: "h1", Time: 0},
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 5000},
	})
	l2 := makeLocal("sm2", nil, []timeline.Entry{
		{Kind: timeline.HostChange, Host: "h2", Time: 0},
		{Kind: timeline.StateChange, Event: "e2", NewState: "B", Host: "h2", Time: 4000},
	})
	g, err := Build("h1", bounds, []*timeline.Local{l1, l2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 2 {
		t.Fatalf("events = %d, want 2 (host changes skipped)", len(g.Events))
	}
	// sm2's 4000 on h2 projects to 3000 on reference; it sorts first.
	if g.Events[0].Machine != "sm2" || g.Events[0].Ref.Mid() != 3000 {
		t.Errorf("events[0] = %+v", g.Events[0])
	}
	if g.Events[1].Machine != "sm1" || g.Events[1].Ref.Mid() != 5000 {
		t.Errorf("events[1] = %+v", g.Events[1])
	}
	if len(g.Machines) != 2 || g.Machines[0] != "sm1" {
		t.Errorf("machines = %v", g.Machines)
	}
	span, ok := g.Span()
	if !ok || span.Lo != 3000 || span.Hi != 5000 {
		t.Errorf("span = %+v, %v", span, ok)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("h1", nil, []*timeline.Local{{}}); err == nil {
		t.Error("ownerless timeline accepted")
	}
	l := makeLocal("sm", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "mars", Time: 1},
	})
	if _, err := Build("h1", map[string]clocksync.Bounds{"h1": clocksync.Identity()}, []*timeline.Local{l}); err == nil {
		t.Error("unknown host accepted")
	}
	noHost := makeLocal("sm", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Time: 1},
	})
	if _, err := Build("h1", map[string]clocksync.Bounds{"h1": clocksync.Identity()}, []*timeline.Local{noHost}); err == nil {
		t.Error("host-less entry accepted")
	}
	dup := makeLocal("sm", nil, nil)
	if _, err := Build("h1", map[string]clocksync.Bounds{}, []*timeline.Local{dup, dup}); err == nil {
		t.Error("duplicate owner accepted")
	}
	empty, err := Build("h1", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.Span(); ok {
		t.Error("empty timeline has a span")
	}
}

func TestStatelineCertainOccupancy(t *testing.T) {
	bounds := map[string]clocksync.Bounds{"h1": narrow(100)}
	l := makeLocal("sm", nil, []timeline.Entry{
		{Kind: timeline.HostChange, Host: "h1", Time: 0},
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 1000},
		{Kind: timeline.StateChange, Event: "e2", NewState: "B", Host: "h1", Time: 5000},
	})
	g, err := Build("h1", bounds, []*timeline.Local{l})
	if err != nil {
		t.Fatal(err)
	}
	sl := statelineOf(g)
	// A is provable on [1100, 4900]; uncertain in (4900, 5100); B from 5100 on.
	tests := []struct {
		at    vclock.Ticks
		state string
		tri   Tri
	}{
		{500, "", Unknown},
		{1100, "A", True},
		{3000, "A", True},
		{4900, "A", True},
		{5000, "", Unknown},
		{5100, "B", True},
		{999999, "B", True}, // last state extends forever
	}
	for _, tt := range tests {
		state, tri := sl.StateAt("sm", tt.at)
		if state != tt.state || tri != tt.tri {
			t.Errorf("StateAt(%d) = %q,%v want %q,%v", tt.at, state, tri, tt.state, tt.tri)
		}
	}
}

func TestStatelineTriLogic(t *testing.T) {
	bounds := map[string]clocksync.Bounds{"h1": narrow(100)}
	l1 := makeLocal("m1", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 1000},
	})
	l2 := makeLocal("m2", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "B", Host: "h1", Time: 1000},
	})
	g, _ := Build("h1", bounds, []*timeline.Local{l1, l2})
	sl := statelineOf(g)

	at := vclock.Ticks(2000)
	cases := []struct {
		expr string
		want Tri
	}{
		{"(m1:A)", True},
		{"(m1:B)", False},
		{"(m3:A)", Unknown}, // machine with no timeline
		{"~(m1:B)", True},
		{"~(m3:A)", Unknown},
		{"(m1:A) & (m2:B)", True},
		{"(m1:A) & (m3:X)", Unknown},
		{"(m1:B) & (m3:X)", False},   // False AND Unknown = False
		{"(m1:A) | (m3:X)", True},    // True OR Unknown = True
		{"(m1:B) | (m3:X)", Unknown}, // False OR Unknown = Unknown
	}
	for _, tc := range cases {
		got := sl.EvalAt(faultexpr.MustParse(tc.expr), at)
		if got != tc.want {
			t.Errorf("EvalAt(%s) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestTriString(t *testing.T) {
	if True.String() != "true" || False.String() != "false" || Unknown.String() != "unknown" {
		t.Error("Tri strings")
	}
}

// buildElection constructs a black/green scenario: black LEADs then
// CRASHes; green FOLLOWs. Injection times are parameterized so tests can
// place them inside or outside provable windows.
func buildElection(t *testing.T, width float64, blackInj, greenInj vclock.Ticks) (*Global, map[string][]faultexpr.Spec) {
	t.Helper()
	bounds, locals := electionLocals(width, blackInj, greenInj)
	g, err := Build("h1", bounds, locals)
	if err != nil {
		t.Fatal(err)
	}
	return g, SpecsFromLocals(locals)
}

// electionLocals is buildElection's input: the bounds and the two local
// timelines.
func electionLocals(width float64, blackInj, greenInj vclock.Ticks) (map[string]clocksync.Bounds, []*timeline.Local) {
	bounds := map[string]clocksync.Bounds{"h1": narrow(width), "h2": narrow(width)}
	bspec := []faultexpr.Spec{{
		Name: "bfault1", Expr: faultexpr.MustParse("(black:LEAD)"), Mode: faultexpr.Always,
	}}
	gspec := []faultexpr.Spec{{
		Name: "gfault2",
		Expr: faultexpr.MustParse("((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))"),
		Mode: faultexpr.Once,
	}}
	var blackEntries = []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "LEAD", Host: "h1", Time: 10_000},
		{Kind: timeline.StateChange, Event: "e2", NewState: "CRASH", Host: "h1", Time: 50_000},
	}
	if blackInj > 0 {
		blackEntries = append(blackEntries, timeline.Entry{
			Kind: timeline.FaultInjection, Fault: "bfault1", Host: "h1", Time: blackInj,
		})
	}
	var greenEntries = []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "FOLLOW", Host: "h2", Time: 12_000},
	}
	if greenInj > 0 {
		greenEntries = append(greenEntries, timeline.Entry{
			Kind: timeline.FaultInjection, Fault: "gfault2", Host: "h2", Time: greenInj,
		})
	}
	black := makeLocal("black", bspec, blackEntries)
	green := makeLocal("green", gspec, greenEntries)
	return bounds, []*timeline.Local{black, green}
}

func TestCheckAcceptsCorrectInjection(t *testing.T) {
	// bfault1 injected at 30000, well inside LEAD's provable [10100, 49900].
	g, specs := buildElection(t, 100, 30_000, 0)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if !rep.Accepted || len(rep.Injections) != 1 || !rep.Injections[0].Correct {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCheckRejectsInjectionOutsideState(t *testing.T) {
	// Injected at 60000, after black entered CRASH: expression (black:LEAD)
	// is provably false there.
	g, specs := buildElection(t, 100, 60_000, 0)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if rep.Accepted || rep.Injections[0].Correct {
		t.Fatalf("incorrect injection accepted: %+v", rep)
	}
}

func TestCheckRejectsInjectionInUncertaintyWindow(t *testing.T) {
	// Injected at 50000 — exactly at the LEAD->CRASH transition. With
	// +/-100ns bounds the injection interval overlaps the uncertainty
	// window, so correctness is unprovable and must be rejected.
	g, specs := buildElection(t, 100, 50_000, 0)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if rep.Accepted {
		t.Fatalf("unprovable injection accepted: %+v", rep)
	}
}

func TestCheckCrossMachineExpression(t *testing.T) {
	// gfault2 requires black CRASH and green FOLLOW|ELECT simultaneously.
	// At 70000 black is provably CRASHed and green provably FOLLOWs.
	g, specs := buildElection(t, 100, 0, 70_000)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if !rep.Accepted {
		t.Fatalf("correct cross-machine injection rejected: %+v", rep)
	}
	// At 30000 black is still LEAD: provably false.
	g2, specs2 := buildElection(t, 100, 0, 30_000)
	rep2 := CheckExperiment(g2, specs2, CheckOptions{})
	if rep2.Accepted {
		t.Fatalf("wrong-state cross-machine injection accepted: %+v", rep2)
	}
}

func TestCheckWideUncertaintyRejectsCrossHost(t *testing.T) {
	// gfault2's black atom is judged from green's injection on another
	// host: with +/-1ms bounds on 40µs-long states nothing cross-host is
	// provable, so the injection must be rejected.
	g, specs := buildElection(t, 1e6, 0, 70_000)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if rep.Accepted {
		t.Fatal("cross-host injection accepted despite unusable clock bounds")
	}
}

func TestCheckSameClockExactness(t *testing.T) {
	// bfault1's injection and black's state changes share host h1: even
	// with wide projection bounds, the same-clock comparison proves the
	// injection landed inside LEAD.
	g, specs := buildElection(t, 1e6, 30_000, 0)
	rep := CheckExperiment(g, specs, CheckOptions{})
	if !rep.Accepted {
		t.Fatalf("same-clock injection rejected: %+v", rep.Injections)
	}
	// And the same-clock comparison is still exact about misses.
	g2, specs2 := buildElection(t, 1e6, 60_000, 0)
	if rep2 := CheckExperiment(g2, specs2, CheckOptions{}); rep2.Accepted {
		t.Fatal("same-clock out-of-state injection accepted")
	}
}

func TestExactStateAt(t *testing.T) {
	g, _ := buildElection(t, 100, 0, 0)
	sl := statelineOf(g)
	tests := []struct {
		local vclock.Ticks
		want  string
		ok    bool
	}{
		{5_000, "BEGIN", true},
		{10_001, "LEAD", true},
		{49_999, "LEAD", true},
		{50_001, "CRASH", true},
		{10_000, "", false}, // equal to a change: ambiguous
	}
	for _, tt := range tests {
		got, ok := sl.ExactStateAt("black", "h1", tt.local)
		if got != tt.want || ok != tt.ok {
			t.Errorf("ExactStateAt(black, h1, %d) = %q,%v want %q,%v", tt.local, got, ok, tt.want, tt.ok)
		}
	}
	if _, ok := sl.ExactStateAt("black", "h2", 10_001); ok {
		t.Error("wrong-host exact comparison allowed")
	}
	if _, ok := sl.ExactStateAt("nobody", "h1", 10_001); ok {
		t.Error("unknown machine exact comparison allowed")
	}
}

func TestCheckUnknownFaultRejected(t *testing.T) {
	g, specs := buildElection(t, 100, 30_000, 0)
	delete(specs, "black")
	rep := CheckExperiment(g, specs, CheckOptions{})
	if rep.Accepted {
		t.Fatal("injection with no spec accepted")
	}
	if rep.Injections[0].Reason == "" {
		t.Error("missing reason")
	}
}

func TestCheckRequireTriggered(t *testing.T) {
	// black reaches LEAD but bfault1 never records an injection.
	g, specs := buildElection(t, 100, 0, 0)
	rep := CheckExperiment(g, specs, CheckOptions{RequireTriggered: true})
	if rep.Accepted {
		t.Fatal("missing expected injection accepted")
	}
	found := false
	for _, mf := range rep.MissingFaults {
		if mf == "black:bfault1" {
			found = true
		}
	}
	if !found {
		t.Errorf("MissingFaults = %v", rep.MissingFaults)
	}
	// Without the option, the same experiment passes (no injections at all).
	if rep2 := CheckExperiment(g, specs, CheckOptions{}); !rep2.Accepted {
		t.Error("lenient check rejected experiment without injections")
	}
}

// TestCheckerConservativeProperty is the X2 property experiment from
// DESIGN.md: for randomized timelines and injection placements, any
// injection the checker accepts must be genuinely inside the true state
// window (ground truth computed from exact, unprojected times).
func TestCheckerConservativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		width := float64(rng.Intn(3000)) // bounds uncertainty up to 3µs
		enter := vclock.Ticks(rng.Intn(40_000) + 1000)
		leave := enter + vclock.Ticks(rng.Intn(40_000)+1)
		inj := vclock.Ticks(rng.Intn(100_000) + 1)

		spec := []faultexpr.Spec{{Name: "f", Expr: faultexpr.MustParse("(sm:LEAD)"), Mode: faultexpr.Always}}
		l := makeLocal("sm", spec, []timeline.Entry{
			{Kind: timeline.StateChange, Event: "e1", NewState: "LEAD", Host: "h1", Time: enter},
			{Kind: timeline.StateChange, Event: "e2", NewState: "CRASH", Host: "h1", Time: leave},
			{Kind: timeline.FaultInjection, Fault: "f", Host: "h1", Time: inj},
		})
		bounds := map[string]clocksync.Bounds{"h1": narrow(width)}
		g, err := Build("h1", bounds, []*timeline.Local{l})
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckExperiment(g, SpecsFromLocals([]*timeline.Local{l}), CheckOptions{})
		trulyInside := inj >= enter && inj <= leave
		if rep.Accepted && !trulyInside {
			t.Fatalf("trial %d: checker accepted injection at %d outside true window [%d,%d] (width %v)",
				trial, inj, enter, leave, width)
		}
	}
}

func TestStatelineOverlappingUncertaintySkipsSpan(t *testing.T) {
	// A is occupied for only 50ns but the projection uncertainty is 100ns:
	// A's provable-entry time (1100) is after its provable-exit lower
	// bound (950), so A has no provable occupancy anywhere.
	bounds := map[string]clocksync.Bounds{"h1": narrow(100)}
	l := makeLocal("sm", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 1000},
		{Kind: timeline.StateChange, Event: "e2", NewState: "B", Host: "h1", Time: 1050},
		{Kind: timeline.StateChange, Event: "e3", NewState: "C", Host: "h1", Time: 5000},
	})
	g, _ := Build("h1", bounds, []*timeline.Local{l})
	sl := statelineOf(g)
	for at := vclock.Ticks(900); at < 5300; at += 10 {
		if state, tri := sl.StateAt("sm", at); tri == True && state == "A" {
			t.Fatalf("A provable at %d despite overlapping uncertainty", at)
		}
	}
	// B, by contrast, is provable on [1150, 4900].
	if state, tri := sl.StateAt("sm", 2000); tri != True || state != "B" {
		t.Errorf("StateAt(2000) = %q,%v; want B provable", state, tri)
	}
}

func TestProvablyTrueThroughoutBoundaries(t *testing.T) {
	bounds := map[string]clocksync.Bounds{"h1": narrow(0)} // exact clocks
	l := makeLocal("sm", nil, []timeline.Entry{
		{Kind: timeline.StateChange, Event: "e1", NewState: "A", Host: "h1", Time: 1000},
		{Kind: timeline.StateChange, Event: "e2", NewState: "B", Host: "h1", Time: 2000},
	})
	g, _ := Build("h1", bounds, []*timeline.Local{l})
	sl := statelineOf(g)
	e := faultexpr.MustParse("(sm:A)")
	if !sl.ProvablyTrueThroughout(e, Interval{Lo: 1000, Hi: 2000}) {
		t.Error("exact occupancy rejected")
	}
	if sl.ProvablyTrueThroughout(e, Interval{Lo: 1000, Hi: 2001}) {
		t.Error("interval extending past state end accepted")
	}
	if sl.ProvablyTrueThroughout(e, Interval{Lo: 999, Hi: 1500}) {
		t.Error("interval starting before state entry accepted")
	}
}

func TestMachineEventsAndInjections(t *testing.T) {
	g, _ := buildElection(t, 100, 30_000, 70_000)
	if n := len(g.MachineEvents("black")); n != 3 {
		t.Errorf("black events = %d, want 3", n)
	}
	injections := 0
	for _, e := range g.Events {
		if e.Kind == timeline.FaultInjection {
			injections++
		}
	}
	if injections != 2 {
		t.Fatalf("injections = %d, want 2", injections)
	}
}

func TestIntervalMidOverflowSafe(t *testing.T) {
	iv := Interval{Lo: math.MaxInt64 - 10, Hi: math.MaxInt64}
	if mid := iv.Mid(); mid < iv.Lo || mid > iv.Hi {
		t.Errorf("Mid overflowed: %d", mid)
	}
}

// TestProjectionOnlyAblation: the literal §2.5 check (projection intervals
// only) cannot accept a self-triggered injection that the same-clock
// refinement proves correct.
func TestProjectionOnlyAblation(t *testing.T) {
	g, specs := buildElection(t, 1000, 10_500, 0) // inject 500ns after LEAD entry, ±1µs bounds
	mixed := CheckExperiment(g, specs, CheckOptions{})
	projOnly := CheckExperiment(g, specs, CheckOptions{ProjectionOnly: true})
	if !mixed.Accepted {
		t.Error("same-clock check rejected a provably correct injection")
	}
	if projOnly.Accepted {
		t.Error("projection-only check accepted an injection inside its uncertainty window")
	}
}
