package lint

import "testing"

func TestWallclock(t *testing.T) {
	runFixture(t, Wallclock, "repro/internal/wclint")
}

// TestWallclockAllowlist: the sanctioned wall-clock boundary packages
// (internal/clock and subpackages) may touch real time freely.
func TestWallclockAllowlist(t *testing.T) {
	runFixtureClean(t, Wallclock, "repro/internal/clock/wcallow")
}

// TestWallclockVclockNotExempt: host clocks read the runtime's clock, so
// internal/vclock is off the allowlist and a wall-clock tick source there
// is flagged.
func TestWallclockVclockNotExempt(t *testing.T) {
	runFixture(t, Wallclock, "repro/internal/vclock/wcvclock")
}

func TestRawlog(t *testing.T) {
	runFixture(t, Rawlog, "repro/internal/rllint")
}

func TestAppImports(t *testing.T) {
	runFixture(t, AppImports, "repro/apps/ailint")
}

// TestAppImportsTransitive: an internal type smuggled out through the
// public surface (sm.States exposing *spec.StateDef) is flagged even
// though the fixture never imports internal/spec.
func TestAppImportsTransitive(t *testing.T) {
	runFixture(t, AppImports, "repro/examples/ailint")
}

func TestUntrackedGo(t *testing.T) {
	runFixture(t, UntrackedGo, "repro/apps/uglint")
}

// TestGobRegister: registry-aware — the fixture imports the real
// repro/app, registers one payload type through the real RegisterMessage,
// and the analyzer flags exactly the unregistered ones, with a fix
// suggestion naming the missing call.
func TestGobRegister(t *testing.T) {
	runFixture(t, GobRegister, "repro/apps/goblint")
}

func TestGobRegisterFixSuggestion(t *testing.T) {
	pkg := loadFixture(t, "repro/apps/goblint")
	diags, err := Run([]*Package{pkg}, []*Analyzer{GobRegister})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Fix == "add app.RegisterMessage(pongMsg{}) to this package's init so the payload survives the cluster transports' gob envelope" {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carried the RegisterMessage(pongMsg{}) fix suggestion; got %v", diags)
	}
}

func TestMapOrder(t *testing.T) {
	runFixture(t, MapOrder, "repro/internal/molint")
}
