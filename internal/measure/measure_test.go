package measure

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/observation"
	"repro/internal/predicate"
	"repro/internal/timeline"
	"repro/internal/vclock"
)

func ms(v float64) vclock.Ticks { return vclock.FromMillis(v) }

// mkGlobal builds an exact-bounds global timeline from (machine, state, ms)
// rows, for driving study measures.
func mkGlobal(rows ...[3]interface{}) *analysis.Global {
	g := &analysis.Global{Reference: "h"}
	seen := map[string]bool{}
	for _, r := range rows {
		machine, state := r[0].(string), r[1].(string)
		at := ms(r[2].(float64))
		g.Events = append(g.Events, analysis.Event{
			Machine: machine, Kind: timeline.StateChange, State: state,
			Event: "e", Host: "h", Local: at,
			Ref: analysis.Interval{Lo: at, Hi: at},
		})
		if !seen[machine] {
			seen[machine] = true
			g.Machines = append(g.Machines, machine)
		}
	}
	return g
}

func TestSelectors(t *testing.T) {
	tests := []struct {
		src     string
		prev    float64
		hasPrev bool
		want    bool
	}{
		{"default", 0, false, true},
		{"default", -5, true, true},
		{"(OBS_VALUE > 0)", 1, true, true},
		{"(OBS_VALUE > 0)", 0, true, false},
		{"(OBS_VALUE > 0)", 1, false, false},
		{"(OBS_VALUE >= 2)", 2, true, true},
		{"(OBS_VALUE < 2)", 1, true, true},
		{"(OBS_VALUE <= 2)", 3, true, false},
		{"(OBS_VALUE == 2)", 2, true, true},
		{"(OBS_VALUE != 2)", 2, true, false},
		{"(2 <= OBS_VALUE <= 10)", 5, true, true},
		{"(2 <= OBS_VALUE <= 10)", 11, true, false},
		{"(2 <= OBS_VALUE <= 10)", 1, true, false},
	}
	for _, tt := range tests {
		sel, err := ParseSelector(tt.src)
		if err != nil {
			t.Errorf("ParseSelector(%q): %v", tt.src, err)
			continue
		}
		if got := sel.Select(tt.prev, tt.hasPrev); got != tt.want {
			t.Errorf("%q.Select(%v,%v) = %v, want %v", tt.src, tt.prev, tt.hasPrev, got, tt.want)
		}
	}
}

func TestSelectorParseErrors(t *testing.T) {
	for _, src := range []string{"", "(X > 0)", "(OBS_VALUE >)", "(OBS_VALUE ? 1)", "(a <= OBS_VALUE <= b)"} {
		if _, err := ParseSelector(src); err == nil {
			t.Errorf("ParseSelector(%q) succeeded", src)
		}
	}
}

func TestSelectorStrings(t *testing.T) {
	for _, src := range []string{"default", "(OBS_VALUE > 0)", "(2 <= OBS_VALUE <= 10)"} {
		sel, err := ParseSelector(src)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSelector(sel.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", sel.String(), err)
		}
		if again.String() != sel.String() {
			t.Errorf("round trip %q -> %q", sel.String(), again.String())
		}
	}
	u := UserSelector{Fn: func(float64) bool { return true }}
	if u.String() != "user-selector" {
		t.Error("anonymous user selector name")
	}
	if !(UserSelector{Name: "x", Fn: func(v float64) bool { return v > 0 }}).Select(1, true) {
		t.Error("user selector select")
	}
}

// coverageMeasure is the §5.8 study measure for leader-error coverage:
// ((default, (black:CRASH), total_duration(T, START_EXP, END_EXP)),
//
//	((OBS_VALUE > 0), (black:RESTART_SM), total_duration(T,...) > 0 -> outcome))
//
// The thesis's second observation is a boolean over a total_duration; here
// it is a User function returning 1 when the restart state was occupied.
func coverageMeasure(t *testing.T) *StudyMeasure {
	t.Helper()
	restartObserved := observation.User{
		Name: "restarted",
		Fn: func(p predicate.PVT, env observation.Env) float64 {
			if (observation.TotalDuration{Phase: observation.TruePhase,
				Start: observation.StartExp(), End: observation.EndExp()}).Apply(p, env) > 0 {
				return 1
			}
			return 0
		},
	}
	m, err := NewStudyMeasure("coverage",
		Triple{
			Select: Default{},
			Pred:   predicate.MustParse("(black, CRASH)"),
			Obs:    observation.MustParse("total_duration(T, START_EXP, END_EXP)"),
		},
		Triple{
			Select: Cmp{Op: OpGT, Value: 0},
			Pred:   predicate.MustParse("(black, RESTART_SM)"),
			Obs:    restartObserved,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStudyMeasureCoverageScenarios(t *testing.T) {
	m := coverageMeasure(t)

	// Crash then restart: covered -> 1.
	covered := mkGlobal(
		[3]interface{}{"black", "LEAD", 10.0},
		[3]interface{}{"black", "CRASH", 20.0},
		[3]interface{}{"black", "RESTART_SM", 30.0},
		[3]interface{}{"black", "FOLLOW", 40.0},
	)
	if v, ok := m.Apply(covered); !ok || v != 1 {
		t.Errorf("covered: (%v, %v), want (1, true)", v, ok)
	}

	// Crash, never restarted: not covered -> 0.
	uncovered := mkGlobal(
		[3]interface{}{"black", "LEAD", 10.0},
		[3]interface{}{"black", "CRASH", 20.0},
		[3]interface{}{"other", "IDLE", 40.0}, // extends experiment span
	)
	if v, ok := m.Apply(uncovered); !ok || v != 0 {
		t.Errorf("uncovered: (%v, %v), want (0, true)", v, ok)
	}

	// Never crashed: filtered out by the second subset selection.
	noCrash := mkGlobal(
		[3]interface{}{"black", "LEAD", 10.0},
		[3]interface{}{"black", "FOLLOW", 20.0},
	)
	if _, ok := m.Apply(noCrash); ok {
		t.Error("experiment without a crash should be deselected")
	}
}

func TestStudyMeasureApplyAll(t *testing.T) {
	m := coverageMeasure(t)
	exps := []*analysis.Global{
		mkGlobal([3]interface{}{"black", "CRASH", 5.0}, [3]interface{}{"black", "RESTART_SM", 8.0}, [3]interface{}{"black", "FOLLOW", 9.0}),
		mkGlobal([3]interface{}{"black", "CRASH", 5.0}, [3]interface{}{"other", "IDLE", 9.0}),
		mkGlobal([3]interface{}{"black", "LEAD", 5.0}), // deselected
	}
	vals := m.ApplyAll(exps)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 0 {
		t.Errorf("ApplyAll = %v", vals)
	}
}

func TestStudyMeasureValidation(t *testing.T) {
	if _, err := NewStudyMeasure("empty"); err == nil {
		t.Error("empty measure accepted")
	}
	if _, err := NewStudyMeasure("bad", Triple{}); err == nil {
		t.Error("nil components accepted")
	}
	notDefault := Triple{
		Select: Cmp{Op: OpGT, Value: 0},
		Pred:   predicate.MustParse("(a, B)"),
		Obs:    observation.MustParse("outcome(0)"),
	}
	if _, err := NewStudyMeasure("bad2", notDefault); err == nil {
		t.Error("non-default first selector accepted")
	}
}

func TestStudyMeasureEmptyTimeline(t *testing.T) {
	m := coverageMeasure(t)
	if _, ok := m.Apply(&analysis.Global{}); ok {
		t.Error("empty timeline selected")
	}
}

func TestStudyMeasureString(t *testing.T) {
	m := coverageMeasure(t)
	s := m.String()
	if s == "" || s[0] != '(' {
		t.Errorf("String = %q", s)
	}
}

func TestComputeMomentsKnownSample(t *testing.T) {
	// Sample {1, 2, 3, 4}: mean 2.5, mu2 1.25, mu3 0, mu4 2.5625.
	m := ComputeMoments([]float64{1, 2, 3, 4})
	if m.N != 4 || m.M1 != 2.5 {
		t.Errorf("mean: %+v", m)
	}
	if math.Abs(m.Mu2-1.25) > 1e-12 {
		t.Errorf("mu2 = %v", m.Mu2)
	}
	if math.Abs(m.Mu3) > 1e-12 {
		t.Errorf("mu3 = %v", m.Mu3)
	}
	if math.Abs(m.Mu4-2.5625) > 1e-12 {
		t.Errorf("mu4 = %v", m.Mu4)
	}
	if math.Abs(m.Beta2-m.Mu4/(1.25*1.25)) > 1e-12 {
		t.Errorf("beta2 = %v", m.Beta2)
	}
	if m.StdDev() != math.Sqrt(1.25) {
		t.Errorf("sd = %v", m.StdDev())
	}
}

func TestComputeMomentsDegenerate(t *testing.T) {
	m := ComputeMoments(nil)
	if m.N != 0 || m.M1 != 0 {
		t.Errorf("empty moments = %+v", m)
	}
	c := ComputeMoments([]float64{7, 7, 7})
	if c.Mu2 > 1e-12 || c.Beta1 != 0 || c.Skew() != 0 || c.ExcessKurtosis() != 0 {
		t.Errorf("constant sample moments = %+v", c)
	}
	p, err := c.Percentile(0.99)
	if err != nil || p != 7 {
		t.Errorf("degenerate percentile = %v, %v", p, err)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

// TestMomentsShiftInvariance: central moments are invariant under shifts.
// momentsShiftInvariant reports whether shifting a seeded sample by
// shiftRaw leaves its central moments unchanged, up to the rounding error
// of Eqns 4.1–4.3. Those formulas cancel raw-moment terms: Mu4 subtracts
// terms near 6·shift⁴ to leave a value near 3σ⁴, so the error scales with
// the largest term cancelled, not with the central moment itself.
func momentsShiftInvariant(seed int64, shiftRaw int8) bool {
	rng := rand.New(rand.NewSource(seed))
	shift := float64(shiftRaw)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
		ys[i] = xs[i] + shift
	}
	a, b := ComputeMoments(xs), ComputeMoments(ys)
	// cancelled returns the largest magnitude among the terms f picks out
	// of either sample's moments.
	cancelled := func(f func(m Moments) []float64) float64 {
		scale := 1.0
		for _, m := range []Moments{a, b} {
			for _, term := range f(m) {
				scale = math.Max(scale, math.Abs(term))
			}
		}
		return scale
	}
	mu2 := cancelled(func(m Moments) []float64 { return []float64{m.M2, m.M1 * m.M1} })
	mu3 := cancelled(func(m Moments) []float64 {
		return []float64{m.M3, 3 * m.M2 * m.M1, 2 * m.M1 * m.M1 * m.M1}
	})
	mu4 := cancelled(func(m Moments) []float64 {
		return []float64{m.M4, 4 * m.M3 * m.M1, 6 * m.M2 * m.M1 * m.M1, 3 * m.M1 * m.M1 * m.M1 * m.M1}
	})
	// 50 summed values and four cancelled terms lose at most ≈ 60 ulps of
	// the largest term; 1e-12 leaves a margin of about 70.
	const tol = 1e-12
	return math.Abs(a.Mu2-b.Mu2) <= tol*mu2 &&
		math.Abs(a.Mu3-b.Mu3) <= tol*mu3 &&
		math.Abs(a.Mu4-b.Mu4) <= tol*mu4 &&
		math.Abs(a.M1+shift-b.M1) <= 1e-9*math.Max(1, math.Abs(b.M1))
}

func TestMomentsShiftInvariance(t *testing.T) {
	// quick.Check drew this case about once in 20 runs when the tolerance
	// was 1e-8 of the central moment: Mu4 missed that by 3 %. Its error is
	// 2 ulps of the largest cancelled term.
	if !momentsShiftInvariant(-6766547748867433413, -127) {
		t.Error("pinned case (seed -6766547748867433413, shift -127) fails")
	}
	if err := quick.Check(momentsShiftInvariant, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.9, 1.281552},
		{0.0001, -3.719016},
	}
	for _, tc := range cases {
		if got := normQuantile(tc.p); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("normQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileNormalSample(t *testing.T) {
	// A large normal sample's Cornish-Fisher percentiles should be close
	// to the true normal quantiles.
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	m := ComputeMoments(xs)
	for _, gamma := range []float64{0.05, 0.5, 0.95, 0.99} {
		got, err := m.Percentile(gamma)
		if err != nil {
			t.Fatal(err)
		}
		want := 10 + 2*normQuantile(gamma)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("percentile(%v) = %v, want ~%v", gamma, got, want)
		}
	}
	if _, err := m.Percentile(0); err == nil {
		t.Error("percentile(0) accepted")
	}
	if _, err := m.Percentile(1); err == nil {
		t.Error("percentile(1) accepted")
	}
}

func TestPercentileSkewedSample(t *testing.T) {
	// Exponential(1): true median ln2≈0.693. Cornish-Fisher from four
	// moments is approximate; accept 10% error.
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	m := ComputeMoments(xs)
	med, err := m.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-math.Ln2) > 0.1 {
		t.Errorf("exponential median = %v, want ~%v", med, math.Ln2)
	}
	if m.Skew() < 1.5 {
		t.Errorf("exponential skew = %v, want ~2", m.Skew())
	}
}

func TestSimpleSamplingPoolsStudies(t *testing.T) {
	r := SimpleSampling([]float64{1, 1}, []float64{0, 0})
	if r.Kind != SimpleSamplingKind {
		t.Error("kind")
	}
	if r.Moments.N != 4 || r.Mean() != 0.5 {
		t.Errorf("pooled = %+v", r.Moments)
	}
}

func TestStratifiedWeighted(t *testing.T) {
	studies := [][]float64{{1, 1, 1}, {0, 0, 0}, {1, 0}}
	weights := []float64{2, 1, 1}
	r, err := StratifiedWeighted(studies, weights)
	if err != nil {
		t.Fatal(err)
	}
	// mean = (2*1 + 1*0 + 1*0.5)/4 = 0.625
	if math.Abs(r.Mean()-0.625) > 1e-12 {
		t.Errorf("mean = %v", r.Mean())
	}
	if len(r.PerStudy) != 3 || r.PerStudy[2].M1 != 0.5 {
		t.Errorf("per-study = %+v", r.PerStudy)
	}
	// mu2 = p3 * 0.25 = 0.0625 (studies 1,2 have zero variance)
	if math.Abs(r.Moments.Mu2-0.0625) > 1e-12 {
		t.Errorf("mu2 = %v", r.Moments.Mu2)
	}
}

func TestStratifiedWeightedMatchesSimpleWhenProportional(t *testing.T) {
	// With weights proportional to study sizes, the stratified mean equals
	// the pooled mean.
	s1, s2 := []float64{1, 2, 3}, []float64{10, 20}
	r, err := StratifiedWeighted([][]float64{s1, s2}, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	pooled := SimpleSampling(s1, s2)
	if math.Abs(r.Mean()-pooled.Mean()) > 1e-12 {
		t.Errorf("stratified %v != pooled %v", r.Mean(), pooled.Mean())
	}
}

func TestStratifiedWeightedErrors(t *testing.T) {
	if _, err := StratifiedWeighted(nil, nil); err == nil {
		t.Error("empty studies accepted")
	}
	if _, err := StratifiedWeighted([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := StratifiedWeighted([][]float64{{1}}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := StratifiedWeighted([][]float64{{1}}, []float64{0}); err == nil {
		t.Error("zero weight sum accepted")
	}
}

func TestCoverageFormula(t *testing.T) {
	// §5.8: c = (wb*cb + wg*cg + wy*cy) / (wb+wg+wy)
	c, err := Coverage([]float64{0.9, 0.8, 0.7}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (3*0.9 + 2*0.8 + 1*0.7) / 6
	if math.Abs(c-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", c, want)
	}
	if _, err := Coverage([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched coverage inputs accepted")
	}
}

func TestCampaignKindString(t *testing.T) {
	if SimpleSamplingKind.String() == "" || StratifiedWeightedKind.String() == "" ||
		CampaignKind(9).String() == "" {
		t.Error("kind strings")
	}
}

// TestParseTriple: the one parser of a (selector, predicate, observation)
// triple. An empty selector and "default" both admit every experiment; a
// bad field in any position is an error.
func TestParseTriple(t *testing.T) {
	const pred, obs = "(green, CRASH)", "total_duration(T, START_EXP, END_EXP)"
	for _, sel := range []string{"", "default"} {
		tr, err := ParseTriple(sel, pred, obs)
		if err != nil {
			t.Fatalf("selector %q: %v", sel, err)
		}
		if _, ok := tr.Select.(Default); !ok || tr.Pred == nil || tr.Obs == nil {
			t.Errorf("selector %q: triple %v", sel, tr)
		}
	}
	tr, err := ParseTriple("(OBS_VALUE > 0)", pred, obs)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := tr.Select.(Cmp); !ok || c.Op != OpGT || c.Value != 0 {
		t.Errorf("selector = %v", tr.Select)
	}
	for _, bad := range [][3]string{
		{"(OBS_VALUE ~ 0)", pred, obs},
		{"", "((", obs},
		{"", pred, "nosuch(T)"},
	} {
		if _, err := ParseTriple(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ParseTriple%q accepted", bad)
		}
	}
}
