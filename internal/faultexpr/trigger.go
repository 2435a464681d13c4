package faultexpr

// Trigger implements the fault parser's positive-edge semantics for one
// fault (§3.5.5): it remembers the expression's previous value and reports a
// firing only when the value transitions from false to true, subject to the
// once/always mode.
//
// Trigger is not safe for concurrent use; the runtime serializes view
// changes per node, as the thesis's fault parser does.
type Trigger struct {
	spec  Spec
	prev  bool
	fired bool
}

// NewTrigger returns a trigger for spec. The previous value starts false, so
// an expression that is true in the very first observed view fires
// immediately — matching the thesis, where the initial global state is
// entered "from" no state at all.
func NewTrigger(spec Spec) *Trigger { return &Trigger{spec: spec} }

// Spec returns the fault specification this trigger watches.
func (t *Trigger) Spec() Spec { return t.spec }

// Observe evaluates the expression against the new view and reports whether
// the fault should be injected now.
func (t *Trigger) Observe(v View) bool {
	cur := t.spec.Expr.Eval(v)
	edge := cur && !t.prev
	t.prev = cur
	if !edge {
		return false
	}
	if t.spec.Mode == Once {
		if t.fired {
			return false
		}
		t.fired = true
	}
	return true
}

// Reset restores the trigger to its start-of-experiment state.
func (t *Trigger) Reset() { t.prev, t.fired = false, false }

// TriggerSet evaluates a collection of triggers against each view change,
// in specification order, and returns the names of faults to inject.
//
// At construction the specs are compiled into an atom→expression index:
// for each state machine name, the set of triggers whose expressions
// mention it. ObserveChange uses the index to re-evaluate only the
// expressions a single-machine view change can possibly affect, which is
// what makes the probe's notification path cheap when a study carries many
// fault specifications.
type TriggerSet struct {
	triggers []*Trigger
	// byMachine maps a state machine name to the indices (ascending, so
	// specification order is preserved) of the triggers whose expressions
	// reference it.
	byMachine map[string][]int
	// primed is false until the first observation. The first observation
	// must evaluate every trigger regardless of which machine changed:
	// each trigger's previous value starts false, so an expression that is
	// already true in the first view (for example a pure negation over a
	// still-unknown machine) fires immediately, as the thesis prescribes.
	primed bool
}

// NewTriggerSet builds a set from specs, preserving order, and compiles the
// atom→expression index.
func NewTriggerSet(specs []Spec) *TriggerSet {
	ts := &TriggerSet{
		triggers:  make([]*Trigger, len(specs)),
		byMachine: make(map[string][]int),
	}
	for i, s := range specs {
		ts.triggers[i] = NewTrigger(s)
		for _, m := range Machines(s.Expr) {
			ts.byMachine[m] = append(ts.byMachine[m], i)
		}
	}
	return ts
}

// Observe feeds a new view to every trigger and returns the specs that fired,
// in specification order.
func (ts *TriggerSet) Observe(v View) []Spec {
	ts.primed = true
	var fired []Spec
	for _, t := range ts.triggers {
		if t.Observe(v) {
			fired = append(fired, t.Spec())
		}
	}
	return fired
}

// ObserveChange feeds a view change that affected only the named machine,
// re-evaluating just the triggers whose expressions mention it — skipped
// expressions cannot have changed value, so their edge state stays correct.
// The first observation evaluates everything (see primed). Firing order is
// specification order, exactly as Observe.
func (ts *TriggerSet) ObserveChange(machine string, v View) []Spec {
	if !ts.primed {
		return ts.Observe(v)
	}
	idx := ts.byMachine[machine]
	if len(idx) == 0 {
		return nil
	}
	var fired []Spec
	for _, i := range idx {
		if ts.triggers[i].Observe(v) {
			fired = append(fired, ts.triggers[i].Spec())
		}
	}
	return fired
}

// Reset restores every trigger to its start-of-experiment state.
func (ts *TriggerSet) Reset() {
	ts.primed = false
	for _, t := range ts.triggers {
		t.Reset()
	}
}
