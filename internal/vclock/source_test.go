package vclock_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/vclock"
)

// readConcurrently has n goroutines take k readings each of c and returns
// them per goroutine.
func readConcurrently(c *vclock.Clock, n, k int) [][]vclock.Ticks {
	out := make([][]vclock.Ticks, n)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads := make([]vclock.Ticks, k)
			for j := range reads {
				reads[j] = c.Now()
			}
			out[g] = reads
		}()
	}
	wg.Wait()
	return out
}

func TestClockConcurrentNow(t *testing.T) {
	c := vclock.NewClock(clock.Real{}, vclock.ClockConfig{Offset: 12345, DriftPPM: 30, Jitter: 100, Seed: 7})
	for g, reads := range readConcurrently(c, 8, 2000) {
		for j := 1; j < len(reads); j++ {
			if reads[j] < reads[j-1] {
				t.Fatalf("goroutine %d: clock went backwards under concurrency: %d -> %d", g, reads[j-1], reads[j])
			}
		}
	}
}

// TestClockConcurrentNowDistinct: a jitter-free cycle-accurate clock reads
// without a lock, and its compare-and-swap clamp must keep what the mutex
// gave — every reading across all goroutines distinct, and each
// goroutine's readings strictly increasing. Over the wall clock, and over
// a source that never moves, where the clamp alone makes readings
// distinct.
func TestClockConcurrentNowDistinct(t *testing.T) {
	for name, src := range map[string]vclock.Source{
		"real":   clock.Real{},
		"frozen": vclock.NewManualSource(0),
	} {
		t.Run(name, func(t *testing.T) {
			c := vclock.NewClock(src, vclock.ClockConfig{Offset: -4e6, DriftPPM: 70})
			var all []vclock.Ticks
			for g, reads := range readConcurrently(c, 8, 5000) {
				for j := 1; j < len(reads); j++ {
					if reads[j] <= reads[j-1] {
						t.Fatalf("goroutine %d: reading %d not after %d", g, reads[j], reads[j-1])
					}
				}
				all = append(all, reads...)
			}
			slices.Sort(all)
			for i := 1; i < len(all); i++ {
				if all[i] == all[i-1] {
					t.Fatalf("two goroutines read the same instant %d", all[i])
				}
			}
		})
	}
}

// TestClockNowOverVirtualAllocs: a host-clock timestamp over simulated
// time allocates nothing.
func TestClockNowOverVirtualAllocs(t *testing.T) {
	v := clock.NewVirtual()
	c := vclock.NewClock(v, vclock.ClockConfig{Offset: 4e6, DriftPPM: 70})
	if n := testing.AllocsPerRun(1000, func() { c.Now() }); n != 0 {
		t.Fatalf("vclock.Clock.Now over a Virtual allocates %v objects, want 0", n)
	}
}
