package campaign

// Verdict is what became of one experiment: what traces, metrics, status,
// the report, the artifacts and the command-line drivers all print.
type Verdict uint8

const (
	// Aborted: the runtime phase did not finish in time (§3.5.1).
	Aborted Verdict = iota
	// Discarded: the analysis phase could not process the experiment
	// (AnalysisError): an infeasible clock fit, say, or a lost timeline.
	Discarded
	// Rejected: analysed, and some injection is not provably correct.
	Rejected
	// Accepted: analysed, and every injection provably hit its state (§2.5).
	Accepted
)

var verdictNames = [...]string{Aborted: "aborted", Discarded: "discarded", Rejected: "rejected", Accepted: "accepted"}

// String is the verdict's name.
func (v Verdict) String() string { return verdictNames[v] }

// Verdict classifies the record: the one reader of Completed,
// AnalysisError and Accepted together.
func (r *ExperimentRecord) Verdict() Verdict {
	switch {
	case !r.Completed:
		return Aborted
	case r.AnalysisError != "":
		return Discarded
	case r.Accepted:
		return Accepted
	}
	return Rejected
}

// Tally counts verdicts, of one point or campaign-wide. ClockStep counts
// the discarded experiments whose analysis suspected a clock step.
type Tally struct {
	Experiments int `json:"experiments"`
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	Discarded   int `json:"discarded"`
	Aborted     int `json:"aborted"`
	ClockStep   int `json:"clock_step"`
}

// add counts one record's verdict.
func (t *Tally) add(r RecordSummary) {
	t.Experiments++
	counts := [...]*int{Aborted: &t.Aborted, Discarded: &t.Discarded, Rejected: &t.Rejected, Accepted: &t.Accepted}
	*counts[r.Verdict]++
	if r.ClockStepSuspected {
		t.ClockStep++
	}
}

// plus adds u's counts to t's.
func (t *Tally) plus(u Tally) {
	t.Experiments += u.Experiments
	t.Accepted += u.Accepted
	t.Rejected += u.Rejected
	t.Discarded += u.Discarded
	t.Aborted += u.Aborted
	t.ClockStep += u.ClockStep
}
