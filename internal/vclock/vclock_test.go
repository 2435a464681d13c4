package vclock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTicksConversions(t *testing.T) {
	tests := []struct {
		name string
		in   Ticks
		ms   float64
	}{
		{"zero", 0, 0},
		{"one ms", 1e6, 1},
		{"half ms", 5e5, 0.5},
		{"negative", -2e6, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Millis(); got != tt.ms {
				t.Errorf("Millis() = %v, want %v", got, tt.ms)
			}
			if got := FromMillis(tt.ms); got != tt.in {
				t.Errorf("FromMillis(%v) = %v, want %v", tt.ms, got, tt.in)
			}
		})
	}
}

func TestTicksDuration(t *testing.T) {
	if got := Ticks(1500).Duration(); got != 1500*time.Nanosecond {
		t.Errorf("Duration() = %v", got)
	}
	if got := FromDuration(2 * time.Millisecond); got != 2e6 {
		t.Errorf("FromDuration = %v", got)
	}
}

func TestHiLoRoundTrip(t *testing.T) {
	tests := []Ticks{0, 1, 1<<32 - 1, 1 << 32, 1<<40 + 12345, math.MaxInt64, -1, math.MinInt64}
	for _, tt := range tests {
		if got := FromHiLo(tt.Hi(), tt.Lo()); got != tt {
			t.Errorf("FromHiLo(Hi,Lo) of %d = %d", tt, got)
		}
	}
}

func TestHiLoRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		tk := Ticks(v)
		return FromHiLo(tk.Hi(), tk.Lo()) == tk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManualSource(t *testing.T) {
	s := NewManualSource(100)
	if got := s.NowTicks(); got != 100 {
		t.Fatalf("NowTicks() = %d, want 100", got)
	}
	s.Advance(50)
	if got := s.NowTicks(); got != 150 {
		t.Fatalf("after Advance: NowTicks() = %d, want 150", got)
	}
	s.Set(200)
	if got := s.NowTicks(); got != 200 {
		t.Fatalf("after Set: NowTicks() = %d, want 200", got)
	}
}

func TestManualSourcePanicsOnBackwards(t *testing.T) {
	s := NewManualSource(10)
	for name, f := range map[string]func(){
		"negative advance": func() { s.Advance(-1) },
		"set backwards":    func() { s.Set(5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestClockAffine(t *testing.T) {
	src := NewManualSource(0)
	c := NewClock(src, ClockConfig{Offset: 1000, DriftPPM: 100})
	// At t=1e9 (1s), C = 1000 + (1+1e-4)*1e9.
	want := Ticks(1000 + 1e9 + 1e5)
	if got := c.At(1e9); got != want {
		t.Errorf("At(1e9) = %d, want %d", got, want)
	}
	src.Set(1e9)
	if got := c.Now(); got != want {
		t.Errorf("Now() = %d, want %d", got, want)
	}
}

func TestClockGranularity(t *testing.T) {
	src := NewManualSource(0)
	c := NewClock(src, ClockConfig{Granularity: 1000})
	if got := c.At(12345); got != 12000 {
		t.Errorf("At(12345) = %d, want 12000", got)
	}
}

func TestClockPhysicalAtInverts(t *testing.T) {
	src := NewManualSource(0)
	c := NewClock(src, ClockConfig{Offset: -5e6, DriftPPM: -80})
	for _, pt := range []Ticks{0, 1e6, 123456789, 5e12} {
		local := c.At(pt)
		back := Ticks(float64(local-c.offset) / c.drift) // the inverse transform
		if diff := back - pt; diff < -2 || diff > 2 {
			t.Errorf("the inverse of At(%d) = %d (diff %d)", pt, back, diff)
		}
	}
}

func TestClockMonotonicUnderJitter(t *testing.T) {
	src := NewManualSource(0)
	c := NewClock(src, ClockConfig{Jitter: 1000, Seed: 42})
	prev := c.Now()
	for i := 0; i < 5000; i++ {
		src.Advance(Ticks(i % 7)) // tiny advances so jitter dominates
		now := c.Now()
		if now < prev {
			t.Fatalf("jittered clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

func TestAlphaBetaGroundTruth(t *testing.T) {
	src := NewManualSource(0)
	r := NewClock(src, ClockConfig{Offset: 2000, DriftPPM: 50})
	i := NewClock(src, ClockConfig{Offset: -3000, DriftPPM: -20})
	alpha, beta := AlphaBeta(r, i)
	// Verify C_i(t) == alpha + beta*C_r(t) across a range of times.
	for _, pt := range []Ticks{0, 1e6, 1e9, 7e11} {
		want := float64(i.At(pt))
		got := float64(alpha) + beta*float64(r.At(pt))
		if math.Abs(got-want) > 2 {
			t.Errorf("t=%d: alpha+beta*Cr = %v, want Ci = %v", pt, got, want)
		}
	}
}

func TestAlphaBetaIdentity(t *testing.T) {
	src := NewManualSource(0)
	c := NewClock(src, ClockConfig{Offset: 777, DriftPPM: 13})
	alpha, beta := AlphaBeta(c, c)
	if beta != 1 {
		t.Errorf("beta(r,r) = %v, want 1", beta)
	}
	if alpha != 0 {
		t.Errorf("alpha(r,r) = %v, want 0", alpha)
	}
}

func TestPerfectClock(t *testing.T) {
	src := NewManualSource(5000)
	c := NewClock(src, ClockConfig{})
	if got := c.Now(); got != 5000 {
		t.Errorf("perfect clock Now() = %d, want 5000", got)
	}
	if c.drift != 1 || c.offset != 0 {
		t.Errorf("perfect clock has nonzero error: offset=%d drift=%v", c.offset, c.drift)
	}
}

// TestClockResetMatchesFresh: after Reset, a clock reads exactly what a
// clock NewClock builds from the same configuration reads — reading for
// reading, the jitter sequence included — whether it was stepped before
// the reset or its monotonic clamp was ahead of its source, with jitter
// and without. Mutation: leave the jitter generator where it was, or the
// clamp; the readings then differ.
func TestClockResetMatchesFresh(t *testing.T) {
	configs := map[string]ClockConfig{
		"jitter":       {Offset: 3e6, DriftPPM: 40, Jitter: 500, Seed: 9},
		"exact":        {Offset: -1e6, DriftPPM: -20},
		"granular":     {Offset: 7e5, DriftPPM: 15, Granularity: 1000, Jitter: 2500, Seed: 4},
		"jitter seed0": {Jitter: 300},
	}
	uses := map[string]func(src *ManualSource, c *Clock){
		"stepped": func(src *ManualSource, c *Clock) {
			c.Now()
			src.Advance(1e6)
			c.Step(4e6)
			c.Now()
		},
		"clamp ahead": func(src *ManualSource, c *Clock) {
			c.Step(50e6)
			c.Now()
			c.Step(-50e6)
			src.Advance(1e6)
			c.Now()
		},
	}
	for cname, cfg := range configs {
		for uname, use := range uses {
			src := NewManualSource(2e6)
			used := NewClock(src, cfg)
			use(src, used)
			used.Reset()
			fresh := NewClock(src, cfg)
			for i := 0; i < 64; i++ {
				if got, want := used.Now(), fresh.Now(); got != want {
					t.Fatalf("%s clock %s then reset: reading %d is %d, a fresh clock's %d", cname, uname, i, got, want)
				}
				if i%3 == 0 {
					src.Advance(Ticks(i) * 1000)
				}
			}
		}
	}
}
