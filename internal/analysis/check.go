package analysis

import (
	"fmt"

	"repro/internal/faultexpr"
	"repro/internal/timeline"
)

// InjectionCheck is the verdict for one fault injection (§2.5): Correct is
// true only when the injection interval lies completely within a period in
// which the fault's Boolean expression is provably true on the global
// timeline.
type InjectionCheck struct {
	Machine string
	Fault   string
	At      Interval
	Correct bool
	Reason  string
}

// Report is the analysis verdict for one experiment.
type Report struct {
	Injections []InjectionCheck
	// MissingFaults lists faults whose expression was provably true at
	// some instant yet which never recorded an injection; populated only
	// when checking with RequireTriggered.
	MissingFaults []string
	// Accepted is true when every injection was provably correct (and,
	// with RequireTriggered, no expected fault was missing). Only
	// accepted experiments enter measure estimation (§2.6).
	Accepted bool
}

// CheckOptions alters CheckExperiment's strictness.
type CheckOptions struct {
	// RequireTriggered also rejects experiments in which a fault's
	// expression provably became true but no injection was recorded —
	// the thesis's "each injection that should have been made" reading.
	RequireTriggered bool
	// ProjectionOnly disables the same-clock exactness refinement and
	// checks every atom through projected intervals alone — the literal
	// §2.5 procedure. Used by the ablation bench: self-triggered faults
	// (injections microseconds after their triggering state entry) are
	// then never provable, so acceptance collapses.
	ProjectionOnly bool
}

// Checker builds global timelines and checks experiments, keeping its
// scratch for the next call — Build's per-machine event lists, merge heap
// and duplicate-owner set; the stateline's spans, changes and breakpoints;
// the sample points; the specs map — so a goroutine analyzing one
// experiment after another allocates only what it returns. Nothing Build
// or Check returns aliases that scratch: a Global or Report stays intact
// however many experiments the Checker handles after it. The zero value is
// ready; a Checker is not safe for concurrent use.
type Checker struct {
	seen  map[string]bool
	buf   []Event // Build's per-machine lists are windows of it
	lists [][]Event
	heap  []mergeHead

	sl    Stateline
	specs map[string][]faultexpr.Spec
}

// CheckExperiment verifies every recorded injection against the fault
// specifications of its machine. specs maps machine nickname to that
// machine's fault specification (from its local timeline header).
//
// The check is conservative in exactly the thesis's way: the upper bound of
// the state start and the lower bound of the injection time establish "after
// entered"; the lower bound of the state end and the upper bound of the
// injection establish "before exited". Here that is generalized from a
// single (machine,state) to the full Boolean expression via three-valued
// evaluation: the expression must be provably true throughout the
// injection's uncertainty interval.
func CheckExperiment(g *Global, specs map[string][]faultexpr.Spec, opts CheckOptions) *Report {
	return new(Checker).Check(g, specs, opts)
}

// Check is CheckExperiment on c's scratch. It derives its stateline from
// g alone, so any Global will do: a fresh Build's or a decoded one.
func (c *Checker) Check(g *Global, specs map[string][]faultexpr.Spec, opts CheckOptions) *Report {
	sl := &c.sl
	sl.reset(g)
	rep := &Report{Accepted: true}
	injections := 0
	for i := range g.Events {
		if g.Events[i].Kind == timeline.FaultInjection {
			injections++
		}
	}
	if injections > 0 {
		rep.Injections = make([]InjectionCheck, 0, injections)
	}

	specFor := func(machine, fault string) (faultexpr.Spec, bool) {
		for _, s := range specs[machine] {
			if s.Name == fault {
				return s, true
			}
		}
		return faultexpr.Spec{}, false
	}

	for i := range g.Events {
		inj := &g.Events[i]
		if inj.Kind != timeline.FaultInjection {
			continue
		}
		chk := InjectionCheck{Machine: inj.Machine, Fault: inj.Fault, At: inj.Ref}
		spec, ok := specFor(inj.Machine, inj.Fault)
		switch {
		case !ok:
			chk.Reason = "no fault specification for this machine"
		case !opts.ProjectionOnly && sl.CheckInjection(spec.Expr, *inj):
			chk.Correct = true
			chk.Reason = "expression provably true at the injection instant"
		case opts.ProjectionOnly && sl.ProvablyTrueThroughout(spec.Expr, inj.Ref):
			chk.Correct = true
			chk.Reason = "expression provably true throughout injection interval"
		default:
			chk.Reason = fmt.Sprintf("expression %s not provably true throughout %s", spec.Expr, inj.Ref)
		}
		if !chk.Correct {
			rep.Accepted = false
		}
		rep.Injections = append(rep.Injections, chk)
	}

	if opts.RequireTriggered {
		injected := make(map[string]bool)
		for _, inj := range rep.Injections {
			injected[inj.Machine+"\x00"+inj.Fault] = true
		}
		for _, m := range g.Machines {
			for _, s := range specs[m] {
				if injected[m+"\x00"+s.Name] {
					continue
				}
				if expressionEverTrue(sl, s.Expr, g) {
					rep.MissingFaults = append(rep.MissingFaults, m+":"+s.Name)
					rep.Accepted = false
				}
			}
		}
	}
	return rep
}

// expressionEverTrue reports whether e is provably true at any breakpoint
// segment of the global timeline.
func expressionEverTrue(sl *Stateline, e faultexpr.Expr, g *Global) bool {
	span, ok := g.Span()
	if !ok {
		return false
	}
	for _, bp := range sl.breakpoints {
		if bp < span.Lo || bp > span.Hi {
			continue
		}
		if sl.EvalAt(e, bp) == True {
			return true
		}
	}
	return false
}

// SpecsFromLocals extracts per-machine fault specifications from local
// timeline headers, the form CheckExperiment consumes.
func SpecsFromLocals(locals []*timeline.Local) map[string][]faultexpr.Spec {
	return new(Checker).SpecsFromLocals(locals)
}

// SpecsFromLocals is the package-level SpecsFromLocals into c's map: the
// result is c's scratch, valid until c's next SpecsFromLocals call.
func (c *Checker) SpecsFromLocals(locals []*timeline.Local) map[string][]faultexpr.Spec {
	if c.specs == nil {
		c.specs = make(map[string][]faultexpr.Spec, len(locals))
	}
	clear(c.specs)
	for _, l := range locals {
		c.specs[l.Owner] = l.Faults
	}
	return c.specs
}
