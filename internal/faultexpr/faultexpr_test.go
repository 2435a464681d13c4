package faultexpr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAtom(t *testing.T) {
	e, err := Parse("(SM1:ELECT)")
	if err != nil {
		t.Fatal(err)
	}
	a, ok := e.(Atom)
	if !ok {
		t.Fatalf("got %T, want Atom", e)
	}
	if a.Machine != "SM1" || a.State != "ELECT" {
		t.Errorf("atom = %+v", a)
	}
}

func TestParseThesisExamples(t *testing.T) {
	tests := []struct {
		name string
		expr string
		view MapView
		want bool
	}{
		{
			name: "F1 from §3.5.5 true",
			expr: "((SM1:ELECT) & (SM2:FOLLOW))",
			view: MapView{"SM1": "ELECT", "SM2": "FOLLOW"},
			want: true,
		},
		{
			name: "F1 from §3.5.5 false",
			expr: "((SM1:ELECT) & (SM2:FOLLOW))",
			view: MapView{"SM1": "ELECT", "SM2": "LEAD"},
			want: false,
		},
		{
			name: "gfault2 from §5.4 crash+follow",
			expr: "((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))",
			view: MapView{"black": "CRASH", "green": "FOLLOW"},
			want: true,
		},
		{
			name: "gfault2 from §5.4 crash+elect",
			expr: "((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))",
			view: MapView{"black": "CRASH", "green": "ELECT"},
			want: true,
		},
		{
			name: "gfault2 from §5.4 no crash",
			expr: "((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))",
			view: MapView{"black": "LEAD", "green": "FOLLOW"},
			want: false,
		},
		{
			name: "gfault3 from §5.4",
			expr: "((green:FOLLOW) | (green:ELECT))",
			view: MapView{"green": "ELECT"},
			want: true,
		},
		{
			name: "bfault1 from §5.4",
			expr: "(black:LEAD)",
			view: MapView{"black": "LEAD"},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := Parse(tt.expr)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Eval(tt.view); got != tt.want {
				t.Errorf("Eval(%v) = %v, want %v", tt.view, got, tt.want)
			}
		})
	}
}

func TestParseNot(t *testing.T) {
	e := MustParse("~(SM1:UP) & (SM2:UP)")
	if !e.Eval(MapView{"SM1": "DOWN", "SM2": "UP"}) {
		t.Error("want true when SM1 not UP and SM2 UP")
	}
	if e.Eval(MapView{"SM1": "UP", "SM2": "UP"}) {
		t.Error("want false when SM1 UP")
	}
}

func TestPrecedenceNotAndOr(t *testing.T) {
	// a | b & c parses as a | (b & c).
	e := MustParse("(A:x) | (B:y) & (C:z)")
	if !e.Eval(MapView{"A": "x", "B": "q", "C": "q"}) {
		t.Error("a alone should satisfy a | (b & c)")
	}
	if e.Eval(MapView{"A": "q", "B": "y", "C": "q"}) {
		t.Error("b alone should not satisfy a | (b & c)")
	}
	// ~a & b parses as (~a) & b.
	e2 := MustParse("~(A:x) & (B:y)")
	if e2.Eval(MapView{"A": "x", "B": "y"}) {
		t.Error("~ should bind to the atom, not the conjunction")
	}
}

func TestUnknownMachineIsFalse(t *testing.T) {
	e := MustParse("(ghost:STATE)")
	if e.Eval(MapView{}) {
		t.Error("atom over unknown machine must be false")
	}
	// But its negation is true: "not known to be in STATE".
	if !MustParse("~(ghost:STATE)").Eval(MapView{}) {
		t.Error("negated unknown atom must be true")
	}
}

func TestParseBareAtom(t *testing.T) {
	e, err := Parse("black:LEAD")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Eval(MapView{"black": "LEAD"}) {
		t.Error("bare atom evaluation failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"(SM1:)",
		"(SM1)",
		"(:STATE)",
		"(SM1:A) &",
		"(SM1:A) (SM2:B)",
		"(SM1:A))",
		"& (SM1:A)",
		"(SM1:A) @ (SM2:B)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		"(SM1:ELECT)",
		"((SM1:ELECT) & (SM2:FOLLOW))",
		"((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))",
		"~((a:b) | (c:d))",
	}
	for _, src := range exprs {
		e := MustParse(src)
		again := MustParse(e.String())
		// Compare behaviour on a set of views rather than string equality
		// (String normalizes parentheses).
		views := []MapView{
			{"SM1": "ELECT", "SM2": "FOLLOW"},
			{"black": "CRASH", "green": "ELECT"},
			{"a": "b"},
			{"c": "d"},
			{},
		}
		for _, v := range views {
			if e.Eval(v) != again.Eval(v) {
				t.Errorf("%q: round-trip changed semantics on %v", src, v)
			}
		}
	}
}

// TestRandomExprRoundTrip generates random expressions, renders and reparses
// them, and checks behavioural equivalence on random views.
func TestRandomExprRoundTrip(t *testing.T) {
	machines := []string{"m1", "m2", "m3"}
	states := []string{"a", "b"}
	var build func(rng *rand.Rand, depth int) Expr
	build = func(rng *rand.Rand, depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return Atom{Machine: machines[rng.Intn(len(machines))], State: states[rng.Intn(len(states))]}
		}
		switch rng.Intn(3) {
		case 0:
			return Not{X: build(rng, depth-1)}
		case 1:
			return And{L: build(rng, depth-1), R: build(rng, depth-1)}
		default:
			return Or{L: build(rng, depth-1), R: build(rng, depth-1)}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := build(rng, 4)
		again, err := Parse(e.String())
		if err != nil {
			t.Logf("reparse of %q failed: %v", e, err)
			return false
		}
		for i := 0; i < 16; i++ {
			v := MapView{}
			for _, m := range machines {
				if rng.Intn(2) == 0 {
					v[m] = states[rng.Intn(len(states))]
				}
			}
			if e.Eval(v) != again.Eval(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMachines(t *testing.T) {
	e := MustParse("((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) | (black:LEAD)")
	got := Machines(e)
	want := []string{"black", "green"}
	if len(got) != len(want) {
		t.Fatalf("Machines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Machines = %v, want %v", got, want)
		}
	}
}

func TestParseSpecLine(t *testing.T) {
	s, ok, err := ParseSpecLine("F1 ((SM1:ELECT) & (SM2:FOLLOW)) always")
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if s.Name != "F1" || s.Mode != Always {
		t.Errorf("spec = %+v", s)
	}
	if !s.Expr.Eval(MapView{"SM1": "ELECT", "SM2": "FOLLOW"}) {
		t.Error("parsed expression misbehaves")
	}
}

func TestParseSpecLineSkipsBlanksAndComments(t *testing.T) {
	for _, line := range []string{"", "   ", "# comment", "\t# indented comment"} {
		_, ok, err := ParseSpecLine(line)
		if err != nil || ok {
			t.Errorf("ParseSpecLine(%q) = ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseSpecLineErrors(t *testing.T) {
	bad := []string{
		"F1",
		"F1 (SM1:A)",
		"F1 (SM1:A) sometimes",
		"F1 ((SM1:A) once",
	}
	for _, line := range bad {
		if _, ok, err := ParseSpecLine(line); err == nil && ok {
			t.Errorf("ParseSpecLine(%q) succeeded, want error", line)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	doc := `
# faults for study 4 (§5.4)
bfault1 (black:LEAD) always
gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once
`
	specs, err := ParseSpecs(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
	if specs[0].Name != "bfault1" || specs[0].Mode != Always {
		t.Errorf("specs[0] = %v", specs[0])
	}
	if specs[1].Name != "gfault2" || specs[1].Mode != Once {
		t.Errorf("specs[1] = %v", specs[1])
	}
}

func TestParseSpecsReportsLine(t *testing.T) {
	_, err := ParseSpecs("good (a:b) once\nbad (a:b fnord once")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

func TestTriggerPositiveEdge(t *testing.T) {
	spec := Spec{Name: "f", Expr: MustParse("(sm:S)"), Mode: Always}
	tr := NewTrigger(spec)
	if !tr.Observe(MapView{"sm": "S"}) {
		t.Error("first entry into S should fire")
	}
	if tr.Observe(MapView{"sm": "S"}) {
		t.Error("staying in S should not fire")
	}
	if tr.Observe(MapView{"sm": "T"}) {
		t.Error("leaving S should not fire")
	}
	if !tr.Observe(MapView{"sm": "S"}) {
		t.Error("re-entering S should fire for always-mode")
	}
}

func TestTriggerOnceMode(t *testing.T) {
	spec := Spec{Name: "f", Expr: MustParse("(sm:S)"), Mode: Once}
	tr := NewTrigger(spec)
	if !tr.Observe(MapView{"sm": "S"}) {
		t.Error("first entry should fire")
	}
	tr.Observe(MapView{"sm": "T"})
	if tr.Observe(MapView{"sm": "S"}) {
		t.Error("once-mode fault fired twice")
	}
	if !tr.fired {
		t.Error("fired = false after firing")
	}
	tr.Reset()
	if !tr.Observe(MapView{"sm": "S"}) {
		t.Error("after Reset the trigger should fire again")
	}
}

// TestTriggerGfault2Scenario reproduces the §5.4 note: green moves
// FOLLOW→ELECT while black stays CRASH, and gfault2 must fire only once
// because the expression never goes false in between.
func TestTriggerGfault2Scenario(t *testing.T) {
	spec := Spec{
		Name: "gfault2",
		Expr: MustParse("((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))"),
		Mode: Once,
	}
	tr := NewTrigger(spec)
	if tr.Observe(MapView{"black": "LEAD", "green": "FOLLOW"}) {
		t.Fatal("should not fire before crash")
	}
	if !tr.Observe(MapView{"black": "CRASH", "green": "FOLLOW"}) {
		t.Fatal("should fire on crash")
	}
	if tr.Observe(MapView{"black": "CRASH", "green": "ELECT"}) {
		t.Fatal("FOLLOW→ELECT must not re-fire: expression stayed true")
	}
}

// TestAlwaysModeStillEdgeTriggered checks that even "always" requires the
// expression to go false before re-firing (positive-edge semantics).
func TestAlwaysModeStillEdgeTriggered(t *testing.T) {
	spec := Spec{
		Name: "g",
		Expr: MustParse("((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))"),
		Mode: Always,
	}
	tr := NewTrigger(spec)
	tr.Observe(MapView{"black": "CRASH", "green": "FOLLOW"})
	if tr.Observe(MapView{"black": "CRASH", "green": "ELECT"}) {
		t.Fatal("always-mode fired without a falling edge")
	}
	tr.Observe(MapView{"black": "LEAD", "green": "ELECT"})
	if !tr.Observe(MapView{"black": "CRASH", "green": "ELECT"}) {
		t.Fatal("always-mode should fire after a falling edge")
	}
}

func TestTriggerSet(t *testing.T) {
	specs, err := ParseSpecs("a (m:X) once\nb (m:Y) always\nc ((m:X) | (m:Y)) always")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTriggerSet(specs)
	fired := ts.Observe(MapView{"m": "X"})
	if len(fired) != 2 || fired[0].Name != "a" || fired[1].Name != "c" {
		t.Fatalf("fired = %v", fired)
	}
	fired = ts.Observe(MapView{"m": "Y"})
	if len(fired) != 1 || fired[0].Name != "b" {
		t.Fatalf("fired = %v (c should not re-fire: still true)", fired)
	}
	ts.Reset()
	fired = ts.Observe(MapView{"m": "X"})
	if len(fired) != 2 {
		t.Fatalf("after reset, fired = %v", fired)
	}
}

func TestModeString(t *testing.T) {
	if Once.String() != "once" || Always.String() != "always" {
		t.Error("Mode.String mismatch")
	}
	if Mode(99).String() != "Mode(99)" {
		t.Error("unknown mode string")
	}
	if _, err := ParseMode("never"); err == nil {
		t.Error("ParseMode(never) should fail")
	}
	for _, s := range []string{"once", "ONCE", "Always"} {
		if _, err := ParseMode(s); err != nil {
			t.Errorf("ParseMode(%q): %v", s, err)
		}
	}
}
