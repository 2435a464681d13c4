package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLatencyModelsNonNegativeAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := map[string]LatencyModel{
		"exponential": Exponential{Min: 5, MeanTail: 50},
		"timesliced":  Timesliced{Wire: 150, Timeslice: 10000, PReady: 0.3, Runnable: 2},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10000; i++ {
				d := m.Sample(rng)
				if d < 0 {
					t.Fatalf("negative sample %d", d)
				}
			}
		})
	}
}

func TestExponentialRespectsFloor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Exponential{Min: 42, MeanTail: 100}
		for i := 0; i < 100; i++ {
			if e.Sample(rng) < 42 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTimeslicedQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := Timesliced{Wire: 100, Timeslice: 10_000_000, PReady: 0, Runnable: 0}
	// With PReady 0 and no competitors, delay is wire + U[0,timeslice).
	for i := 0; i < 1000; i++ {
		d := m.Sample(rng)
		if d < 100 || d >= 100+10_000_000 {
			t.Fatalf("sample %d outside expected window", d)
		}
	}
}
