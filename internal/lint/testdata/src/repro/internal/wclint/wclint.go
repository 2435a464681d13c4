// Package wclint is the wallclock analyzer fixture: every way engine code
// can reach the wall clock, including the alias and dot-import evasions
// the old grep script could not see.
package wclint

import (
	"time"

	t "time"

	. "time"
)

func direct() {
	_ = time.Now()       // want `time.Now escapes the injected clock.Clock`
	time.Sleep(Second)   // want `time.Sleep escapes the injected clock.Clock`
	_ = time.After(Hour) // want `time.After escapes the injected clock.Clock`
}

func aliased() {
	_ = t.Now()               // want `time.Now escapes the injected clock.Clock`
	_ = t.Since(time.Time{})  // want `time.Since escapes the injected clock.Clock`
	_ = t.NewTimer(t.Second)  // want `time.NewTimer escapes the injected clock.Clock`
	_ = t.NewTicker(t.Second) // want `time.NewTicker escapes the injected clock.Clock`
}

func dotted() {
	_ = Now()         // want `time.Now escapes the injected clock.Clock`
	_ = Until(Time{}) // want `time.Until escapes the injected clock.Clock`
	_ = Tick(Minute)  // want `time.Tick escapes the injected clock.Clock`
	AfterFunc(0, nil) // want `time.AfterFunc escapes the injected clock.Clock`
}

func stored() {
	f := time.Now // want `time.Now escapes the injected clock.Clock`
	_ = f
}

func typesOnlyIsFine(d time.Duration, at time.Time) time.Duration {
	_ = at.After(at) // a method of time.Time, not the function time.After
	return d + time.Second
}

func allowed() {
	//lint:allow wallclock fixture demonstrates the justified escape hatch
	_ = time.Now()
	_ = time.Now() //lint:allow wallclock trailing-form directive on the same line
}
