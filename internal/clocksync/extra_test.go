package clocksync

import (
	"testing"
	"testing/quick"

	"repro/internal/simnet"
	"repro/internal/vclock"
)

// TestEstimateWithGranularClocks: quantized clock readings (timer-interrupt
// clocks, §2.5's non-TSC case) add up to one granule of noise per
// timestamp; the bounds must still contain the truth because quantization
// only ever makes a reading *earlier*, which loosens but never inverts the
// positive-delay constraints when the granularity is below the delay floor.
func TestEstimateWithGranularClocks(t *testing.T) {
	msgs, clocks := twoPhases(t, 21, simnet.Exponential{Min: 100_000, MeanTail: 80_000},
		map[string]vclock.ClockConfig{
			"ref": {Granularity: 10_000},
			"g":   {Offset: 3e6, DriftPPM: 40, Granularity: 10_000},
		},
		ExchangeConfig{Count: 30, Spacing: vclock.FromMillis(1)}, vclock.Ticks(40e9))
	b, err := Estimate(SamplesFor(msgs, "ref", "g"))
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta := vclock.AlphaBeta(clocks["ref"], clocks["g"])
	// Allow one granule of slack on alpha: quantization is a bounded
	// measurement error on top of the affine model.
	slack := 20_000.0
	if float64(alpha) < b.AlphaLo-slack || float64(alpha) > b.AlphaHi+slack {
		t.Errorf("alpha %d outside [%v, %v] (+/-%v)", alpha, b.AlphaLo, b.AlphaHi, slack)
	}
	if beta < b.BetaLo-1e-6 || beta > b.BetaHi+1e-6 {
		t.Errorf("beta %v outside [%v, %v]", beta, b.BetaLo, b.BetaHi)
	}
}

// TestBoundsWidthTracksDelayFloor: the alpha uncertainty is governed by the
// round-trip delay floor, the thesis's "bounds are small when the average
// message delay is small".
func TestBoundsWidthTracksDelayFloor(t *testing.T) {
	width := func(floor vclock.Ticks) float64 {
		msgs, _ := twoPhases(t, 5, simnet.Exponential{Min: floor, MeanTail: floor / 2},
			map[string]vclock.ClockConfig{
				"ref": {},
				"x":   {Offset: 1e6, DriftPPM: 30},
			},
			ExchangeConfig{Count: 40, Spacing: vclock.FromMillis(1)}, vclock.Ticks(20e9))
		b, err := Estimate(SamplesFor(msgs, "ref", "x"))
		if err != nil {
			t.Fatal(err)
		}
		return b.AlphaWidth()
	}
	fast, slow := width(20_000), width(2_000_000)
	if fast >= slow {
		t.Errorf("faster LAN did not tighten bounds: %v vs %v", fast, slow)
	}
	if fast > 500_000 {
		t.Errorf("20µs-floor LAN gave %v ns alpha width, want well under 0.5ms", fast)
	}
}

// TestProjectionRoundTripQuick: projecting a remote reading and then
// picking any point in the returned interval must stay within the interval
// arithmetic (lo <= hi always; interval contains the alpha/beta-corner
// projections).
func TestProjectionRoundTripQuick(t *testing.T) {
	f := func(alphaRaw int32, betaRaw uint8, v uint32) bool {
		alpha := float64(alphaRaw)
		beta := 1 + (float64(betaRaw%200)-100)/1e6
		b := Bounds{AlphaLo: alpha - 1000, AlphaHi: alpha + 1000, BetaLo: beta - 1e-6, BetaHi: beta + 1e-6}
		lo, hi := b.Project(vclock.Ticks(v))
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEstimateAllMissingPair: a host that never exchanged with the
// reference cannot be bounded and must surface an error rather than a
// silent wrong answer.
func TestEstimateAllMissingPair(t *testing.T) {
	msgs := []StampedMessage{
		{SendHost: "ref", RecvHost: "a", SendTime: 0, RecvTime: 100},
		{SendHost: "a", RecvHost: "ref", SendTime: 200, RecvTime: 350},
		{SendHost: "b", RecvHost: "a", SendTime: 1, RecvTime: 2}, // b never meets ref
	}
	if _, err := EstimateAll(msgs, "ref"); err == nil {
		t.Error("host without reference exchanges accepted")
	}
}
