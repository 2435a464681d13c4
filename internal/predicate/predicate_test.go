package predicate

import (
	"math"
	"testing"

	"repro/internal/vclock"
)

func ms(v float64) vclock.Ticks { return vclock.FromMillis(v) }

func TestNewPVTNormalizes(t *testing.T) {
	p := NewPVT(
		[]Span{{Lo: 30, Hi: 40}, {Lo: 10, Hi: 20}, {Lo: 15, Hi: 25}, {Lo: 50, Hi: 50}, {Lo: 9, Hi: 5}},
		[]vclock.Ticks{7, 3, 7, 1},
	)
	steps := p.Steps()
	if len(steps) != 2 || steps[0] != (Span{Lo: 10, Hi: 25}) || steps[1] != (Span{Lo: 30, Hi: 40}) {
		t.Errorf("steps = %+v", steps)
	}
	imps := p.Impulses()
	if len(imps) != 3 || imps[0] != 1 || imps[1] != 3 || imps[2] != 7 {
		t.Errorf("impulses = %v", imps)
	}
}

func TestPVTValue(t *testing.T) {
	p := NewPVT([]Span{{Lo: 10, Hi: 20}}, []vclock.Ticks{5, 15, 30})
	tests := []struct {
		at   vclock.Ticks
		want bool
	}{
		{5, true},   // impulse
		{6, false},  // between
		{10, true},  // step start (closed)
		{15, true},  // impulse inside step
		{19, true},  // inside step
		{20, false}, // step end (open)
		{30, true},  // impulse
		{31, false},
	}
	for _, tt := range tests {
		if got := p.Value(tt.at); got != tt.want {
			t.Errorf("Value(%d) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestPVTAndOrNot(t *testing.T) {
	a := NewPVT([]Span{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 30}}, []vclock.Ticks{15})
	b := NewPVT([]Span{{Lo: 5, Hi: 25}}, []vclock.Ticks{15, 40})

	or := a.Or(b)
	if !or.InStep(12) || !or.AtImpulse(40) || !or.InStep(27) {
		t.Errorf("or = %v", or)
	}

	and := a.And(b)
	steps := and.Steps()
	if len(steps) != 2 || steps[0] != (Span{Lo: 5, Hi: 10}) || steps[1] != (Span{Lo: 20, Hi: 25}) {
		t.Errorf("and steps = %+v", steps)
	}
	// Impulse at 15: in a's impulses and b's step; impulse 40 in b only.
	if !and.AtImpulse(15) || and.AtImpulse(40) {
		t.Errorf("and impulses = %v", and.Impulses())
	}

	not := a.Not(0, 50)
	wantSteps := []Span{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 50}}
	gotSteps := not.Steps()
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("not steps = %+v", gotSteps)
	}
	for i := range wantSteps {
		if gotSteps[i] != wantSteps[i] {
			t.Errorf("not steps[%d] = %+v, want %+v", i, gotSteps[i], wantSteps[i])
		}
	}
	if len(not.Impulses()) != 0 {
		t.Error("negation kept impulses")
	}
}

func TestPVTNotEdges(t *testing.T) {
	empty := PVT{}
	n := empty.Not(10, 20)
	if got := n.Steps(); len(got) != 1 || got[0] != (Span{Lo: 10, Hi: 20}) {
		t.Errorf("not of empty = %+v", got)
	}
	full := NewPVT([]Span{{Lo: 0, Hi: 100}}, nil)
	if n := full.Not(10, 20); len(n.steps)+len(n.impulses) != 0 {
		t.Error("not of full horizon should be empty")
	}
}

func TestPVTClip(t *testing.T) {
	p := NewPVT([]Span{{Lo: 0, Hi: 100}}, []vclock.Ticks{5, 50, 95})
	c := p.Clip(10, 90)
	if got := c.Steps(); len(got) != 1 || got[0] != (Span{Lo: 10, Hi: 90}) {
		t.Errorf("clip steps = %+v", got)
	}
	if imps := c.Impulses(); len(imps) != 1 || imps[0] != 50 {
		t.Errorf("clip impulses = %v", imps)
	}
}

func TestPVTTransitions(t *testing.T) {
	p := NewPVT([]Span{{Lo: 10, Hi: 20}}, []vclock.Ticks{15, 25})
	trs := p.Transitions(0, 100)
	// step up@10, impulse up+down@15, step down@20, impulse up+down@25
	if len(trs) != 6 {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].At != 10 || !trs[0].Up || trs[0].Class != Step {
		t.Errorf("trs[0] = %+v", trs[0])
	}
	if trs[1].At != 15 || !trs[1].Up || trs[1].Class != Impulse {
		t.Errorf("trs[1] = %+v", trs[1])
	}
	if trs[2].At != 15 || trs[2].Up {
		t.Errorf("trs[2] = %+v", trs[2])
	}
	if trs[3].At != 20 || trs[3].Up || trs[3].Class != Step {
		t.Errorf("trs[3] = %+v", trs[3])
	}
	// Window filtering.
	if got := p.Transitions(12, 18); len(got) != 2 {
		t.Errorf("windowed transitions = %+v", got)
	}
}

func TestPVTDurationsAndTotals(t *testing.T) {
	p := NewPVT([]Span{{Lo: 10, Hi: 20}, {Lo: 40, Hi: 45}}, []vclock.Ticks{30})
	if d := p.StepTrueAfter(12); d != 8 {
		t.Errorf("StepTrueAfter(12) = %d", d)
	}
	if d := p.StepTrueAfter(30); d != 0 {
		t.Errorf("StepTrueAfter(impulse) = %d", d)
	}
	if d := p.StepFalseAfter(20, 100); d != 20 {
		t.Errorf("StepFalseAfter(20) = %d", d)
	}
	if d := p.StepFalseAfter(45, 100); d != 55 {
		t.Errorf("StepFalseAfter(45) = %d", d)
	}
	if d := p.StepFalseAfter(12, 100); d != 0 {
		t.Errorf("StepFalseAfter(in-step) = %d", d)
	}
	if tot := p.TotalTrue(0, 100); tot != 15 {
		t.Errorf("TotalTrue = %d", tot)
	}
	if tot := p.TotalTrue(15, 42); tot != 7 {
		t.Errorf("TotalTrue(15,42) = %d", tot)
	}
}

func TestTupleValidate(t *testing.T) {
	if err := (Tuple{Machine: "m", State: "s"}).Validate(); err != nil {
		t.Errorf("state tuple rejected: %v", err)
	}
	bad := Tuple{Machine: "m", State: "s", Event: "e", HasTime: true, Time: TimeConstraint{Lo: 5, Hi: 5}}
	if err := bad.Validate(); err == nil {
		t.Error("event tuple with instant time accepted (§4.3.1 forbids)")
	}
	if err := (Tuple{State: "s"}).Validate(); err == nil {
		t.Error("machineless tuple accepted")
	}
	inverted := Tuple{Machine: "m", State: "s", HasTime: true, Time: TimeConstraint{Lo: 10, Hi: 5}}
	if err := inverted.Validate(); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestParseTupleForms(t *testing.T) {
	tests := []struct {
		src  string
		want Tuple
	}{
		{"(SM1, State1)", Tuple{Machine: "SM1", State: "State1"}},
		{"(SM1, State1, 10 < t < 20)", Tuple{Machine: "SM1", State: "State1", HasTime: true,
			Time: TimeConstraint{Lo: ms(10), Hi: ms(20)}}},
		{"(SM3, State3, Event3)", Tuple{Machine: "SM3", State: "State3", Event: "Event3"}},
		{"(SM3, State3, Event3, 10 < t < 30)", Tuple{Machine: "SM3", State: "State3", Event: "Event3",
			HasTime: true, Time: TimeConstraint{Lo: ms(10), Hi: ms(30)}}},
		{"(SM1, State1, t = 15)", Tuple{Machine: "SM1", State: "State1", HasTime: true,
			Time: TimeConstraint{Lo: ms(15), Hi: ms(15)}}},
	}
	for _, tt := range tests {
		e, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		got, ok := e.(Tuple)
		if !ok || got != tt.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tt.src, got, tt.want)
		}
	}
}

func TestParseCombinations(t *testing.T) {
	e, err := Parse("((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(Or); !ok {
		t.Fatalf("got %T, want Or", e)
	}
	e2, err := Parse("~(SM1, Up) & (SM2, Up)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(And); !ok {
		t.Fatalf("got %T, want And", e2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(SM1)",
		"(SM1, S, e, 10 < t < 20, extra)",
		"(SM1, S, Event, t = 5)", // instant with event
		"(SM1, S) &",
		"((SM1, S)",
		"(SM1, S, 10 < x < 20)",
		"(SM1, S, 10 < t)",
		"(SM1, S) @ (SM2, S)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	srcs := []string{
		"((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))",
		"((StateMachine3, State3, Event3, 10 < t < 30) | (StateMachine3, State4, Event4, 20 < t < 40))",
		"((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))",
		"~(SM1, Down) & ((SM2, Up) | (SM3, Up))",
	}
	g := Fig42Timeline()
	for _, src := range srcs {
		e := MustParse(src)
		again, err := Parse(e.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", e.String(), err)
			continue
		}
		p1, p2 := Evaluate(e, g), Evaluate(again, g)
		if p1.String() != p2.String() {
			t.Errorf("round trip changed semantics for %q: %v vs %v", src, p1, p2)
		}
	}
}

// TestFig42PredicateTimelines checks the three §4.3.1 example predicates
// against the reconstructed global timeline. Expected values are computed
// from the printed event table (see EXPERIMENTS.md for the reconciliation
// with the thesis's printed observation values).
func TestFig42PredicateTimelines(t *testing.T) {
	g := Fig42Timeline()

	// Predicate 1: steps only.
	p1 := Evaluate(MustParse("((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))"), g)
	wantSteps := []Span{{Lo: ms(18.9), Hi: ms(20)}, {Lo: ms(32.3), Hi: ms(35.6)}, {Lo: ms(38.9), Hi: ms(40)}}
	gotSteps := p1.Steps()
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("p1 steps = %v", p1)
	}
	for i := range wantSteps {
		if gotSteps[i] != wantSteps[i] {
			t.Errorf("p1 steps[%d] = %+v, want %+v", i, gotSteps[i], wantSteps[i])
		}
	}
	if len(p1.Impulses()) != 0 {
		t.Errorf("p1 impulses = %v, want none", p1.Impulses())
	}

	// Predicate 2: impulses only.
	p2 := Evaluate(MustParse("((StateMachine3, State3, Event3, 10 < t < 30) | (StateMachine3, State4, Event4, 20 < t < 40))"), g)
	if len(p2.Steps()) != 0 {
		t.Errorf("p2 steps = %v, want none", p2.Steps())
	}
	imps := p2.Impulses()
	if len(imps) != 2 || imps[0] != ms(22.3) || imps[1] != ms(26.3) {
		t.Errorf("p2 impulses = %v", imps)
	}

	// Predicate 3: mixed.
	p3 := Evaluate(MustParse("((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))"), g)
	gotSteps = p3.Steps()
	wantSteps = []Span{{Lo: ms(20), Hi: ms(32.3)}, {Lo: ms(37.9), Hi: ms(40)}}
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("p3 steps = %v", p3)
	}
	for i := range wantSteps {
		if gotSteps[i] != wantSteps[i] {
			t.Errorf("p3 steps[%d] = %+v, want %+v", i, gotSteps[i], wantSteps[i])
		}
	}
	imps = p3.Impulses()
	if len(imps) != 4 || imps[0] != ms(11.2) || imps[3] != ms(40.6) {
		t.Errorf("p3 impulses = %v", imps)
	}
}

func TestStateTupleLastStateExtends(t *testing.T) {
	g := Fig42Timeline()
	// SM6 last enters State6 at 37.9 with no later change: untimed tuple
	// extends to +inf.
	p := Evaluate(MustParse("(StateMachine6, State6)"), g)
	steps := p.Steps()
	if len(steps) != 2 {
		t.Fatalf("steps = %v", p)
	}
	if steps[1].Lo != ms(37.9) || steps[1].Hi != math.MaxInt64 {
		t.Errorf("last span = %+v", steps[1])
	}
}

func TestEvalUnknownMachineEmpty(t *testing.T) {
	g := Fig42Timeline()
	if p := Evaluate(MustParse("(NoSuchMachine, State1)"), g); len(p.steps)+len(p.impulses) != 0 {
		t.Errorf("unknown machine PVT = %v", p)
	}
}

func TestPVTStringer(t *testing.T) {
	p := NewPVT([]Span{{Lo: ms(1), Hi: ms(2)}}, []vclock.Ticks{ms(3)})
	if s := p.String(); s != "PVT{[1,2) @3}" {
		t.Errorf("String = %q", s)
	}
	if (PVT{}).String() != "PVT{}" {
		t.Error("empty string form")
	}
}
