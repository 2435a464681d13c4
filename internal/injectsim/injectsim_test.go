package injectsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// The figure tests share one sweep per figure, at a trial count that keeps
// the package's 9,000-odd experiments inside a couple of seconds.
const testTrials = 200

var figs struct {
	once         sync.Once
	fig32, fig33 []Point
	err          error
}

func figSweeps(t *testing.T) (fig32, fig33 []Point) {
	t.Helper()
	figs.once.Do(func() {
		c32, c33 := Fig32Config(), Fig33Config()
		c32.Trials, c33.Trials = testTrials, testTrials
		if figs.fig32, figs.err = Sweep(c32, Fig32Residences()); figs.err != nil {
			return
		}
		figs.fig33, figs.err = Sweep(c33, Fig33Residences())
	})
	if figs.err != nil {
		t.Fatal(figs.err)
	}
	return figs.fig32, figs.fig33
}

func TestSweepMonotonicallyImproves(t *testing.T) {
	fig32, fig33 := figSweeps(t)
	if len(fig32) != len(Fig32Residences()) || len(fig33) != len(Fig33Residences()) {
		t.Fatalf("points = %d and %d", len(fig32), len(fig33))
	}
	// Every residence faces the same delay draws, so the curves do not
	// wiggle: longer residences only ever add provable injections.
	for _, points := range [][]Point{fig32, fig33} {
		for i := 1; i < len(points); i++ {
			if points[i].PCorrect < points[i-1].PCorrect || points[i].PInState < points[i-1].PInState {
				t.Errorf("accuracy regressed: %v -> %v", points[i-1], points[i])
			}
		}
	}
}

// TestFig32Shape verifies the thesis's qualitative claims for the 10 ms
// timeslice: sub-millisecond residences mostly fail, and residences beyond
// a couple of timeslices nearly always succeed.
func TestFig32Shape(t *testing.T) {
	points, _ := figSweeps(t)
	byRes := map[float64]Point{}
	for _, p := range points {
		byRes[p.ResidenceMs] = p
	}
	if p := byRes[0.1]; p.PCorrect != 0 {
		t.Errorf("0.1 ms residence (below the 150 µs wire) injected correctly: %v", p)
	}
	if p := byRes[0.5]; p.PCorrect > 0.6 {
		t.Errorf("0.5 ms residence too accurate: %v", p)
	}
	if p := byRes[10]; p.PCorrect >= 0.95 {
		t.Errorf("one timeslice of residence already reliable: %v", p)
	}
	if p := byRes[25]; p.PCorrect < 0.95 {
		t.Errorf("2.5 timeslices of residence not reliable: %v", p)
	}
	cross := CrossoverMs(points, 0.95)
	if cross <= 0 || cross > 30 {
		t.Errorf("95%% crossover at %v ms, want within ~3 timeslices", cross)
	}
}

// TestFig33ShiftsLeft verifies that shrinking the timeslice 10x shifts the
// reliability crossover left by roughly the same factor (the thesis's
// motivation for measuring both).
func TestFig33ShiftsLeft(t *testing.T) {
	fig32, fig33 := figSweeps(t)
	cross32 := CrossoverMs(fig32, 0.95)
	cross33 := CrossoverMs(fig33, 0.95)
	if cross33 <= 0 || cross32 <= 0 {
		t.Fatalf("crossovers: %v, %v", cross32, cross33)
	}
	if cross33 >= cross32 {
		t.Errorf("1 ms timeslice crossover (%v) not left of 10 ms (%v)", cross33, cross32)
	}
	if cross33 <= 1 || cross33 > 2.5 {
		t.Errorf("1 ms crossover %v ms, want above one timeslice and within 2.5", cross33)
	}
}

func TestWireFloorDominatesTinyResidence(t *testing.T) {
	// With PReady=1 the only delay is the wire: residences below the wire
	// always fail, above it always succeed.
	cfg := Config{
		Timeslice: vclock.FromMillis(10),
		Wire:      150_000,
		PReady:    1,
		Trials:    100,
		Seed:      3,
	}
	points, err := Sweep(cfg, []float64{0.1, 0.2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].PCorrect != 0 {
		t.Errorf("0.1 ms (< wire 0.15 ms) should always fail: %v", points[0])
	}
	if points[1].PCorrect != 1 || points[2].PCorrect != 1 {
		t.Errorf("residences above the wire should always succeed: %v %v", points[1], points[2])
	}
}

// TestAcceptedImpliesInState is the conservative guarantee (§2.5) on the
// one experiment whose ground truth is known exactly: the notification
// delay of every trial was injected, so whether its injection landed in
// the state is arithmetic. The analysis may reject a correct injection; it
// must never accept an incorrect one.
func TestAcceptedImpliesInState(t *testing.T) {
	cfg := Fig33Config()
	cfg.Trials = testTrials
	residences := Fig33Residences()
	trials, err := runTrials(cfg, residences)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i, res := range residences {
		if len(trials[i]) != cfg.Trials {
			t.Fatalf("%v ms: %d trials, want %d", res, len(trials[i]), cfg.Trials)
		}
		accepted, inState := 0, 0
		for d, tr := range trials[i] {
			if tr.injections != 1 {
				t.Errorf("%v ms, draw %d: %d injections recorded, want exactly 1", res, d, tr.injections)
			}
			truth := tr.delay < millis(res)
			if tr.accepted && !truth {
				t.Errorf("%v ms, draw %d: accepted, but the notification took %v", res, d, tr.delay)
			}
			if tr.accepted {
				accepted++
			}
			if truth {
				inState++
			}
		}
		if accepted > inState {
			t.Errorf("%v ms: %d accepted > %d truly in state", res, accepted, inState)
		}
		lost += inState - accepted
	}
	t.Logf("conservative loss: %d correct injections rejected over %d trials", lost, len(residences)*cfg.Trials)

	again, err := runTrials(cfg, residences)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trials, again) {
		t.Error("two sweeps with one seed returned different trials")
	}
}

func TestSweepDeterministic(t *testing.T) {
	cfg := Fig33Config()
	cfg.Trials = 100
	a, err := Sweep(cfg, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(cfg, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not deterministic: %v vs %v", a[i], b[i])
		}
	}
	cfg.Seed++
	c, err := Sweep(cfg, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("a different seed drew the same curve")
	}
}

func TestSweepRejectsNoTrials(t *testing.T) {
	cfg := Fig32Config()
	cfg.Trials = 0
	if _, err := Sweep(cfg, Fig32Residences()); err == nil {
		t.Error("Trials = 0 accepted")
	}
	if pts, err := Sweep(Fig32Config(), nil); err != nil || len(pts) != 0 {
		t.Errorf("no residences: %d points, err %v; want none", len(pts), err)
	}
}

func TestCrossoverMs(t *testing.T) {
	pts := []Point{{ResidenceMs: 1, PCorrect: 0.2}, {ResidenceMs: 2, PCorrect: 0.97}}
	if c := CrossoverMs(pts, 0.95); c != 2 {
		t.Errorf("crossover = %v", c)
	}
	if c := CrossoverMs(pts, 0.99); c != -1 {
		t.Errorf("unreached crossover = %v", c)
	}
}

func TestPointString(t *testing.T) {
	if (Point{ResidenceMs: 1.5, PCorrect: 0.5, Trials: 10}).String() == "" {
		t.Error("empty point string")
	}
}
