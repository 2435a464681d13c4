package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/probe"
)

// ckptDir picks the journal directory for a checkpoint test. CI sets
// LOKI_CHECKPOINT_DIR to a kept location so the journals can be uploaded
// as workflow artifacts when a test fails; locally the directory is a
// t.TempDir.
func ckptDir(t *testing.T, name string) string {
	t.Helper()
	if base := os.Getenv("LOKI_CHECKPOINT_DIR"); base != "" {
		dir := filepath.Join(base, name)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// countingStepCampaign is stepCampaign with an execution counter: every
// application body bumps ran when it actually runs, so tests can prove
// which experiments were re-executed and which were served from the
// journal.
func countingStepCampaign(t testing.TB, experiments, workers int, ran *int64) *Campaign {
	t.Helper()
	c := stepCampaign(t, experiments, workers)
	c.Studies[0].NewApp = countingStepApp(ran)
	return c
}

// countingStepApp is stepApp whose bodies bump ran (when not nil) as they
// run.
func countingStepApp(ran *int64) func(Point, string) (core.App, error) {
	return func(_ Point, nick string) (core.App, error) {
		return probe.NewInstrumented(func(h *core.Handle) {
			if ran != nil {
				atomic.AddInt64(ran, 1)
			}
			h.NotifyEvent("S1")
			h.NotifyEvent("GO")
			h.NotifyEvent("GO2")
		}).On(nick+"fault", probe.NoteFault()), nil
	}
}

// wireBytes canonicalizes a record through the journal's encoding —
// json.Marshal sorts map keys, so equal records yield equal bytes.
func wireBytes(t *testing.T, rec *ExperimentRecord) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointResumeSkipsCompletedExperiments: a fully journaled study
// resumed from its journal must re-execute nothing and return records
// byte-identical (through the wire encoding) to the live run's.
func TestCheckpointResumeSkipsCompletedExperiments(t *testing.T) {
	dir := ckptDir(t, "study-resume")
	const experiments = 3

	var ran1 int64
	c1 := countingStepCampaign(t, experiments, 2, &ran1)
	c1.Checkpoint = &Checkpoint{Dir: dir}
	res1, err := Run(context.Background(), c1)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&ran1); got != experiments*3 {
		t.Fatalf("live run executed %d app bodies, want %d", got, experiments*3)
	}

	var ran2 int64
	c2 := countingStepCampaign(t, experiments, 2, &ran2)
	c2.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	res2, err := Run(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&ran2); got != 0 {
		t.Errorf("resume executed %d app bodies, want 0 (all journaled)", got)
	}
	r1, r2 := res1.Study("steps").Records, res2.Study("steps").Records
	if len(r1) != experiments || len(r2) != experiments {
		t.Fatalf("record counts: live=%d resumed=%d", len(r1), len(r2))
	}
	for i := 0; i < experiments; i++ {
		if !r1[i].Accepted {
			t.Errorf("experiment %d not accepted in live run: %s", i, r1[i].AnalysisError)
		}
		if b1, b2 := wireBytes(t, r1[i]), wireBytes(t, r2[i]); !bytes.Equal(b1, b2) {
			t.Errorf("experiment %d: resumed record differs from live record:\nlive:    %s\nresumed: %s", i, b1, b2)
		}
	}
}

// matrixSummary renders a MatrixResult's deterministic surface: point
// names, per-record verdicts and outcomes, and the per-machine global
// timeline structure of accepted experiments (timestamps legitimately
// differ between runs; structure must not).
func matrixSummary(t *testing.T, res *MatrixResult) string {
	t.Helper()
	var b strings.Builder
	for _, p := range res.Points {
		if p == nil || p.Study == nil {
			t.Fatal("missing point result")
		}
		fmt.Fprintf(&b, "point %s\n", p.Point.Name())
		for _, rec := range p.Study.Records {
			if rec == nil {
				t.Fatalf("point %s: nil record", p.Point.Name())
			}
			fmt.Fprintf(&b, "  exp %d completed=%v accepted=%v err=%q clockstep=%v%v\n",
				rec.Index, rec.Completed, rec.Accepted, rec.AnalysisError,
				rec.ClockStepSuspected, rec.ClockStepHosts)
			nicks := make([]string, 0, len(rec.Outcomes))
			for n := range rec.Outcomes {
				nicks = append(nicks, n)
			}
			sort.Strings(nicks)
			for _, n := range nicks {
				fmt.Fprintf(&b, "  outcome %s=%s\n", n, rec.Outcomes[n])
			}
			if rec.Accepted {
				b.WriteString(canonGlobal(rec.Global))
			}
		}
	}
	return b.String()
}

// TestMatrixResumeAfterInterrupt is the resume acceptance test: a matrix
// campaign interrupted mid-run (a point fails after earlier points
// completed) and restarted with Resume must (a) leave the journaled
// records byte-for-byte untouched, (b) re-execute only the missing
// points, and (c) produce the same records as an uninterrupted run.
// Run under -race in CI.
func TestMatrixResumeAfterInterrupt(t *testing.T) {
	dir := ckptDir(t, "matrix-resume")
	const perPoint = 2 // experiments per point
	seeds := []int64{1, 2, 3}
	interrupt := errors.New("simulated crash")
	failAt := "baseline/default/seed2"

	newMatrix := func(failing bool, ran *int64) *Matrix {
		st := stepStudy(t, perPoint)
		counting := countingStepApp(ran)
		st.NewApp = func(p Point, nick string) (core.App, error) {
			if failing && p.Name() == failAt {
				return nil, interrupt
			}
			return counting(p, nick)
		}
		return &Matrix{Name: "ckpt", Seeds: seeds, Study: st}
	}
	newCampaign := func(resume bool) *Campaign {
		c := countingStepCampaign(t, perPoint, 1, nil)
		c.Studies = nil
		c.Checkpoint = &Checkpoint{Dir: dir, Resume: resume}
		return c
	}

	// Interrupted run: with one worker, point seed1 completes (and is
	// journaled) before seed2's testbed, failing to build its
	// applications, crashes the campaign.
	var ran1 int64
	if _, err := RunMatrix(context.Background(), newCampaign(false), newMatrix(true, &ran1)); !errors.Is(err, interrupt) {
		t.Fatalf("interrupted RunMatrix error = %v, want the simulated crash", err)
	}
	if got := atomic.LoadInt64(&ran1); got != perPoint*3 {
		t.Fatalf("interrupted run executed %d app bodies, want %d (one completed point)", got, perPoint*3)
	}
	journalPath := filepath.Join(dir, journalName)
	before, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	// Resume: only the two missing points run; the journaled records are
	// carried over without being rewritten, so the old journal is a byte
	// prefix of the new one.
	var ran2 int64
	res, err := RunMatrix(context.Background(), newCampaign(true), newMatrix(false, &ran2))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((len(seeds) - 1) * perPoint * 3); atomic.LoadInt64(&ran2) != want {
		t.Errorf("resume executed %d app bodies, want %d (only the missing points)", ran2, want)
	}
	after, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Error("resume rewrote journaled records: old journal is not a prefix of the new one")
	}

	// An uninterrupted run from scratch must agree record for record.
	freshDir := ckptDir(t, "matrix-fresh")
	cFresh := countingStepCampaign(t, perPoint, 1, nil)
	cFresh.Studies = nil
	cFresh.Checkpoint = &Checkpoint{Dir: freshDir}
	resFresh, err := RunMatrix(context.Background(), cFresh, newMatrix(false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := matrixSummary(t, res), matrixSummary(t, resFresh); got != want {
		t.Errorf("resumed matrix differs from uninterrupted run:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
	if acc, total := res.AcceptedTotal(); total != len(seeds)*perPoint || acc != total {
		t.Errorf("resumed matrix accepted %d of %d, want all of %d", acc, total, len(seeds)*perPoint)
	}
}

// TestCheckpointTornTailReexecuted: a torn record line (the crash hit mid
// write) must not be trusted — resume re-executes exactly that experiment.
func TestCheckpointTornTailReexecuted(t *testing.T) {
	dir := ckptDir(t, "torn-tail")
	c1 := countingStepCampaign(t, 2, 1, nil)
	c1.Checkpoint = &Checkpoint{Dir: dir}
	if _, err := Run(context.Background(), c1); err != nil {
		t.Fatal(err)
	}

	// Tear the journal: cut the final record line in half, as a crash
	// mid-append would.
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) != 4 || lines[3] != "" { // header + 2 records
		t.Fatalf("journal has %d lines, want 3", len(lines)-1)
	}
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	var ran int64
	c2 := countingStepCampaign(t, 2, 1, &ran)
	c2.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	res, err := Run(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&ran); got != 3 {
		t.Errorf("resume executed %d app bodies, want 3 (exactly the torn experiment)", got)
	}
	for i, rec := range res.Study("steps").Records {
		if rec == nil || !rec.Completed {
			t.Errorf("experiment %d incomplete after torn-tail resume: %+v", i, rec)
		}
	}
}

// TestCheckpointFingerprintMismatch: resuming against a changed
// configuration must fail loudly, at both the campaign level (journal
// header) and the study level (per-record fingerprints).
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := ckptDir(t, "fingerprint")
	c1 := countingStepCampaign(t, 1, 1, nil)
	c1.Checkpoint = &Checkpoint{Dir: dir}
	if _, err := Run(context.Background(), c1); err != nil {
		t.Fatal(err)
	}

	// Campaign-level: a different host clock invalidates the whole journal.
	c2 := countingStepCampaign(t, 1, 1, nil)
	c2.Hosts[1].Clock.Offset++
	c2.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	if _, err := Run(context.Background(), c2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("changed campaign resumed silently: err = %v", err)
	}

	// Study-level: same campaign, different chaos seed — the header
	// matches but the journaled record must be refused.
	c3 := countingStepCampaign(t, 1, 1, nil)
	c3.Studies[0].ChaosSeed = 99
	c3.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	if _, err := Run(context.Background(), c3); err == nil || !strings.Contains(err.Error(), "different study configuration") {
		t.Errorf("changed study resumed silently: err = %v", err)
	}
}

// checkRefused writes data as the journal under dir and checks that a
// resume, SummarizeJournal and walkJournal each refuse it with an error
// holding every one of want, that the resume runs no application body, and
// that it leaves the file byte for byte as it was.
func checkRefused(t *testing.T, dir string, data []byte, want ...string) {
	t.Helper()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want a refusal naming %q", what, err, w)
			}
		}
	}
	var ran int64
	c := countingStepCampaign(t, 2, 1, &ran)
	c.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	_, err := Run(context.Background(), c)
	refused("resume", err)
	if got := atomic.LoadInt64(&ran); got != 0 {
		t.Errorf("refused resume executed %d app bodies", got)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Errorf("refused resume modified the journal (err %v): %d bytes, was %d", err, len(after), len(data))
	}
	_, err = SummarizeJournal(dir)
	refused("SummarizeJournal", err)
	_, err = walkJournal(dir, func(*journalRecord[RecordSummary]) { t.Error("walkJournal handed out a record of a refused journal") })
	refused("walkJournal", err)
}

// TestCheckpointV1JournalRefused: a journal an older build wrote — version
// 1 (the format with done markers) or version 2 (no sums; the goldens
// before journal version 3) — is refused by resume and by both read-only
// readers, each naming both versions, and the refused resume leaves the
// file byte for byte as it was.
func TestCheckpointV1JournalRefused(t *testing.T) {
	dir := ckptDir(t, "v1-refused")
	c1 := countingStepCampaign(t, 2, 1, nil)
	c1.Checkpoint = &Checkpoint{Dir: dir}
	if _, err := Run(context.Background(), c1); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden_election.journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2} {
		for name, journal := range map[string][]byte{"this campaign's": v3, "the golden": golden} {
			old := unframed(journal, v)
			if bytes.Contains(old, []byte(`"sum":`)) || !bytes.HasPrefix(old, fmt.Appendf(nil, `{"journal":{"Version":%d,`, v)) {
				t.Fatalf("%s journal unframed to version %d: %.120s", name, v, old)
			}
			checkRefused(t, dir, old, fmt.Sprintf("version %d", v), fmt.Sprintf("writes %d", journalVersion))
		}
	}
}

// TestCheckpointForeignFileRefused: a checkpoint.jsonl whose first line
// is complete but not a verified header — not JSON, JSON of another shape,
// a record, or this version's header damaged — is not a journal: resume
// and both read-only readers refuse it, and the resume leaves it as it
// was. Only a torn first line (no newline) is a fresh start.
func TestCheckpointForeignFileRefused(t *testing.T) {
	dir := ckptDir(t, "foreign-refused")
	header, rec := goldenLines(t)
	flip := func(at int) string {
		b := []byte(header)
		b[at] ^= 0x01
		return string(b)
	}
	for name, data := range map[string]string{
		"not json":          "this is not a journal at all\nsecond line\n",
		"json, not journal": `{"name":"campaign"}` + "\n",
		"a record first":    rec + rec,
		"a damaged header":  flip(len(`{"journal":{"Version":3,"Campaign":"g`)) + rec,
		"a damaged version": flip(len(`{"journal":{"Version":`)) + rec, // 3 becomes 2
		"an empty line":     "\n" + header + rec,
	} {
		t.Run(name, func(t *testing.T) {
			checkRefused(t, dir, []byte(data), "not a checkpoint journal")
		})
	}

	// A torn first line is where a crash left a fresh journal's header: the
	// resume starts the journal afresh and runs every experiment.
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte(header[:len(header)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	var ran int64
	c := countingStepCampaign(t, 2, 1, &ran)
	c.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	if _, err := Run(context.Background(), c); err != nil {
		t.Fatalf("resume over a torn first line: %v", err)
	}
	if got := atomic.LoadInt64(&ran); got != 2*3 {
		t.Errorf("resume over a torn first line executed %d app bodies, want %d", got, 2*3)
	}
	if sum, err := SummarizeJournal(dir); err != nil || sum.Totals().Experiments != 2 {
		t.Errorf("journal after a fresh start: %+v, %v; want 2 complete records", sum, err)
	}
}

// TestDuplicateStudyNamesRejected: duplicate study names would shadow
// each other in Result.Study and collide in the journal's record keys.
func TestDuplicateStudyNamesRejected(t *testing.T) {
	c := countingStepCampaign(t, 1, 1, nil)
	c.Studies = append(c.Studies, c.Studies[0])
	if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "duplicate study name") {
		t.Fatalf("Run error = %v, want duplicate study name rejection", err)
	}
}

// TestDuplicatePointNamesRejected: repeated seeds (or duplicate scenario
// or latency names) expand to identically named points.
func TestDuplicatePointNamesRejected(t *testing.T) {
	m := &Matrix{
		Name:  "dup",
		Seeds: []int64{1, 1},
		Study: stepStudy(t, 1),
	}
	c := countingStepCampaign(t, 1, 1, nil)
	c.Studies = nil
	if _, err := RunMatrix(context.Background(), c, m); err == nil || !strings.Contains(err.Error(), "duplicate point name") {
		t.Fatalf("RunMatrix error = %v, want duplicate point name rejection", err)
	}
}

// TestRunSingleRejectsUnknownTransport: before the transport-dispatch
// fix, RunSingle silently built an inproc runtime for any Transport
// value; now an unbuildable socket study must fail, not downgrade.
func TestRunSingleRejectsUnknownTransport(t *testing.T) {
	c := countingStepCampaign(t, 1, 1, nil)
	c.Studies[0].Transport = "pigeon"
	if _, err := RunSingle(context.Background(), c); err == nil {
		t.Fatal("RunSingle accepted an unknown transport kind (silent inproc downgrade)")
	}
}

// TestRunSingleClusteredResume: the lokirun runtime crash-recovery path — a second
// RunSingle over a socket transport with Resume must serve the record,
// stamps, and locals from the journal without running an experiment.
func TestRunSingleClusteredResume(t *testing.T) {
	dir := ckptDir(t, "single-clustered")
	var ran1 int64
	c1 := countingStepCampaign(t, 1, 1, &ran1)
	c1.Studies[0].Transport = "udp"
	c1.Checkpoint = &Checkpoint{Dir: dir}
	res1, err := RunSingle(context.Background(), c1)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := res1.Studies[0].Records[0]
	stamps1, locals1 := rec1.Stamps, rec1.Locals
	if !rec1.Completed || rec1.AnalysisError != "" {
		t.Fatalf("clustered single experiment: %+v", rec1)
	}
	if atomic.LoadInt64(&ran1) != 3 || len(stamps1) == 0 || len(locals1) != 3 {
		t.Fatalf("live run: ran=%d stamps=%d locals=%d", ran1, len(stamps1), len(locals1))
	}

	var ran2 int64
	c2 := countingStepCampaign(t, 1, 1, &ran2)
	c2.Studies[0].Transport = "udp"
	c2.Checkpoint = &Checkpoint{Dir: dir, Resume: true}
	res2, err := RunSingle(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := res2.Studies[0].Records[0]
	stamps2, locals2 := rec2.Stamps, rec2.Locals
	if got := atomic.LoadInt64(&ran2); got != 0 {
		t.Errorf("resumed RunSingle executed %d app bodies, want 0", got)
	}
	if !bytes.Equal(wireBytes(t, rec1), wireBytes(t, rec2)) {
		t.Error("resumed record differs from live record")
	}
	if len(stamps2) != len(stamps1) || len(locals2) != len(locals1) {
		t.Errorf("resumed artifacts: stamps=%d locals=%d, want %d and %d",
			len(stamps2), len(locals2), len(stamps1), len(locals1))
	}
}
