package app_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/app"
	"repro/apps/election"
	_ "repro/apps/quorum"
	_ "repro/apps/replica"
)

// dummy is a minimal registrable application.
var dummy = app.Application{
	Spec: func(string, []string) *app.StateMachine {
		return app.MustParseSpec(`
global_state_list
  BEGIN
  RUN
  EXIT
end_global_state_list
event_list
  START
end_event_list

state BEGIN
  START RUN

state RUN
`)
	},
	New: func(app.Params) *app.Instrumented { return app.New(func(h *app.Handle) {}) },
}

func TestRegisterErrorPaths(t *testing.T) {
	if err := app.Register("", dummy); err == nil {
		t.Error("Register with empty name succeeded, want error")
	}
	for name, a := range map[string]app.Application{
		"t-nil":      {},
		"t-nil-spec": {New: dummy.New},
		"t-nil-new":  {Spec: dummy.Spec},
	} {
		if err := app.Register(name, a); err == nil {
			t.Errorf("Register(%q) with a nil half succeeded, want error", name)
		}
		if _, ok := app.Lookup(name); ok {
			t.Errorf("Register(%q): a registration with a nil half landed in the registry", name)
		}
	}
	if err := app.Register("t-dup", dummy); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	err := app.Register("t-dup", dummy)
	if err == nil {
		t.Fatal("duplicate Register succeeded, want error")
	}
	if !strings.Contains(err.Error(), "t-dup") {
		t.Errorf("duplicate error %q does not name the app", err)
	}
	if _, ok := app.Lookup("t-dup"); !ok {
		t.Error("registered app not found by Lookup")
	}
	if _, ok := app.Lookup("t-never-registered"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	app.MustRegister("t-must", dummy)
	defer func() {
		if recover() == nil {
			t.Error("MustRegister on a duplicate did not panic")
		}
	}()
	app.MustRegister("t-must", dummy)
}

func TestNamesSortedAndComplete(t *testing.T) {
	app.MustRegister("t-zz-names", dummy)
	app.MustRegister("t-aa-names", dummy)
	names := app.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"t-aa-names", "t-zz-names", "election", "replica", "quorum"} {
		if !have[want] {
			t.Errorf("Names() = %v is missing %q", names, want)
		}
	}
}

func TestRegisterConcurrent(t *testing.T) {
	// Concurrent registration and reads must be race-free (run under
	// -race) and every unique name must land exactly once.
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = app.Register(fmt.Sprintf("t-conc-%d", i%16), dummy)
			app.Names()
			app.Lookup("t-conc-0")
		}(i)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 16 {
		t.Errorf("16 duplicate registrations should fail, got %d failures", failed)
	}
}

func TestRegisterMessageIdempotent(t *testing.T) {
	type probeMsg struct{ N int }
	app.RegisterMessage(probeMsg{})
	app.RegisterMessage(probeMsg{}) // same type again must not panic
}

// TestMustParseSpecMemoized: a specification assembled in code is parsed
// once per document text — the same text returns the same (shared,
// read-only) machine, a different one its own — while ParseSpec, which
// takes user input, returns a fresh machine every time.
func TestMustParseSpecMemoized(t *testing.T) {
	peers := []string{"black", "green", "yellow"}
	a, b := election.SpecFor("black", peers), election.SpecFor("black", peers)
	if a != b {
		t.Error("the same document parsed twice")
	}
	if c := election.SpecFor("black", peers[:2]); c == a {
		t.Error("a different peer list returned the same machine")
	}
	doc := a.Format()
	p, err := app.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := app.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	if p == q || p == a {
		t.Error("ParseSpec returned a shared machine")
	}
}
