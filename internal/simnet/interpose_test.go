package simnet

import (
	"math/rand"
	"testing"
)

var h1h2 = Link{From: "h1", To: "h2"}

// consult runs one h1->h2 message through the set.
func consult(s *FilterSet, rng *rand.Rand, payload interface{}) Fate {
	return s.Consult("h1", "h2", payload, rng)
}

func TestDropFilter(t *testing.T) {
	var s FilterSet
	rng := rand.New(rand.NewSource(1))
	s.Install(h1h2, "f", DropFilter{P: 1})
	for i := 0; i < 5; i++ {
		if !consult(&s, rng, i).Drop {
			t.Fatalf("message %d passed a P=1 drop filter", i)
		}
	}
	if s.Consult("h2", "h1", "reverse", rng).Drop {
		t.Error("drop filter on h1->h2 shaped h2->h1")
	}
	if !s.Remove(h1h2, "f") {
		t.Fatal("Remove: filter not found")
	}
	if s.Remove(h1h2, "f") {
		t.Error("Remove reported a filter that was already gone")
	}
	if !s.Empty() {
		t.Error("set not empty after removing its only filter")
	}
	if consult(&s, rng, "after").Drop {
		t.Fatal("message dropped after the filter was removed")
	}
}

func TestDelayFilterShiftsDelivery(t *testing.T) {
	var s FilterSet
	rng := rand.New(rand.NewSource(1))
	if d := consult(&s, rng, "plain").Delay; d != 0 {
		t.Fatalf("unfiltered delay = %d, want 0", d)
	}
	s.Install(h1h2, "d", DelayFilter{Extra: 250_000})
	if d := consult(&s, rng, "delayed").Delay; d != 250_000 {
		t.Errorf("delay = %d, want 250000", d)
	}
	s.Install(h1h2, "j", DelayFilter{Extra: 1000, Jitter: 500})
	for i := 0; i < 100; i++ {
		if d := consult(&s, rng, i).Delay; d < 251_000 || d >= 251_500 {
			t.Fatalf("jittered delay = %d, want in [251000, 251500)", d)
		}
	}
}

func TestDuplicateFilter(t *testing.T) {
	var s FilterSet
	s.Install(h1h2, "dup", DuplicateFilter{P: 1, Copies: 2})
	if c := consult(&s, rand.New(rand.NewSource(1)), "x").Copies; c != 2 {
		t.Fatalf("extra copies = %d, want 2", c)
	}
}

func TestCorruptFilterEnvelope(t *testing.T) {
	var s FilterSet
	s.Install(h1h2, "c", CorruptFilter{P: 1})
	got := consult(&s, rand.New(rand.NewSource(1)), "payload").Payload
	c, ok := got.(Corrupted)
	if !ok {
		t.Fatalf("payload = %#v, want Corrupted envelope", got)
	}
	if c.Original != "payload" {
		t.Errorf("envelope holds %#v", c.Original)
	}
}

func TestWildcardAndInstallOrder(t *testing.T) {
	var s FilterSet
	rng := rand.New(rand.NewSource(1))
	// Wildcard delay applies to every link; specific delay adds on top.
	s.Install(Link{From: Wildcard, To: Wildcard}, "all", DelayFilter{Extra: 100_000})
	s.Install(h1h2, "one", DelayFilter{Extra: 50_000})
	if d := consult(&s, rng, "x").Delay; d != 150_000 {
		t.Errorf("h1->h2 delay = %d, want 150000 (both filters)", d)
	}
	if d := s.Consult("h2", "h3", "x", rng).Delay; d != 100_000 {
		t.Errorf("h2->h3 delay = %d, want 100000 (wildcard only)", d)
	}
	if ids := s.IDs(h1h2); len(ids) != 1 || ids[0] != "one" {
		t.Errorf("IDs(h1->h2) = %v", ids)
	}
	// Filters run in installation order whichever key they sit under: the
	// last payload replacement sticks.
	stamp := func(v string) CorruptFilter {
		return CorruptFilter{P: 1, Corrupt: func(interface{}, *rand.Rand) interface{} { return v }}
	}
	s.Install(h1h2, "first", stamp("specific"))
	s.Install(Link{From: "h1", To: Wildcard}, "second", stamp("wildcard"))
	if p := consult(&s, rng, "x").Payload; p != "wildcard" {
		t.Errorf("payload = %v, want the later-installed filter's", p)
	}
	s.Clear()
	if !s.Empty() || consult(&s, rng, "x") != (Fate{}) {
		t.Error("filters survived Clear")
	}
}

func TestInstallFilterReplacesInPlace(t *testing.T) {
	var s FilterSet
	rng := rand.New(rand.NewSource(1))
	s.Install(h1h2, "f", DropFilter{P: 1})
	if !consult(&s, rng, "x").Drop { // also fills the chain cache
		t.Fatal("P=1 drop filter passed a message")
	}
	s.Install(h1h2, "f", DropFilter{P: 0}) // refresh, not stack
	if consult(&s, rng, "x").Drop {
		t.Fatal("replaced filter still drops (stale chain)")
	}
	if ids := s.IDs(h1h2); len(ids) != 1 {
		t.Errorf("filter stacked instead of replaced: %v", ids)
	}
}

func TestFilterDeterminismUnderSeed(t *testing.T) {
	run := func() (passed int) {
		var s FilterSet
		rng := rand.New(rand.NewSource(42))
		s.Install(h1h2, "f", DropFilter{P: 0.5})
		for i := 0; i < 100; i++ {
			if !consult(&s, rng, i).Drop {
				passed++
			}
		}
		return passed
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed passed %d then %d messages", a, b)
	}
	if a == 0 || a == 100 {
		t.Errorf("P=0.5 drop passed %d of 100", a)
	}
}
