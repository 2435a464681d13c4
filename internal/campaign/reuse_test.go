package campaign

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/apps/election"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/transport"
)

// Tests for the scaffolding a testbed builds once and reuses for every
// experiment (node registrations, recorders, clock-fit scratch): reuse must
// neither cost more than it did when the budget was set nor reach anything
// an experiment has handed over.

// virtualElection is the ledger's virtual-election study shape: the ch. 5
// election of three nodes under virtual time, black crashing 8 ms after it
// first leads, plus any extra fault lines (chaos actions among them).
func virtualElection(t testing.TB, experiments, workers int, extra ...string) *Campaign {
	t.Helper()
	const dormancy = 8 * time.Millisecond
	faults := map[string][]string{"black": {"bfault1 (black:LEAD) once"}}
	for _, line := range extra {
		nick, rest, _ := strings.Cut(line, " ")
		faults[nick] = append(faults[nick], rest)
	}
	var nodes []core.NodeDef
	var placement []spec.NodeEntry
	for i, nick := range electionPeers {
		def := core.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, electionPeers)}
		for _, line := range faults[nick] {
			f, ok, err := faultexpr.ParseSpecLine(line)
			if err != nil || !ok {
				t.Fatalf("fault %q: %v", line, err)
			}
			def.Faults = append(def.Faults, f)
		}
		nodes = append(nodes, def)
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: hostDefs()[i].Name})
	}
	newApp := func(_ Point, nick string) (core.App, error) {
		i := slices.Index(electionPeers, nick)
		in := election.New(election.Config{Peers: electionPeers, RunFor: 25 * time.Millisecond, Seed: int64(1 + 17*i)})
		for _, f := range nodes[i].Faults {
			if f.Action == nil {
				in.On(f.Name, probe.DelayedCrashFault(dormancy, dormancy/5, 1))
			}
		}
		return in, nil
	}
	return &Campaign{
		Name:        "election",
		Hosts:       hostDefs(),
		Workers:     workers,
		VirtualTime: true,
		Sync:        SyncConfig{Messages: 4, Spacing: time.Millisecond, Transit: 20 * time.Microsecond},
		Studies: []*Study{{
			Name:        "election",
			Nodes:       nodes,
			Placement:   placement,
			Experiments: experiments,
			Timeout:     10 * time.Second,
			ChaosSeed:   7,
			NewApp:      newApp,
		}},
	}
}

// TestStudyAllocBudget holds the claimed per-experiment allocation figure
// in tier-1, not only in the ledger: a virtual-time election study through
// the pipeline, runtime phase and analysis both, one worker. The
// per-experiment cost is the difference between a long and a short study,
// so building the testbed does not count. Measured at 25.0 when the
// budget was set; 35.0 while each runtime phase recorded into fresh
// timelines, stamps and raw record instead of an analysed experiment's;
// 39.0 while every scheduled callback allocated its timer
// entry and each completion wait scheduled a timer of its own; 58.0
// before each analysis worker built and checked on
// one reused analysis.Checker and the two sync mini-phases shared one
// stamps slice, 66.0 before virtual-clock task bodies ran on pooled
// coroutines instead of a goroutine each, 104.1 before a process start
// stopped allocating its vote generator, vote maps, broadcast list and
// host list, and 374.7 before the testbed kept its scaffolding.
func TestStudyAllocBudget(t *testing.T) {
	const budget = 28
	allocs := func(experiments int) float64 {
		c := virtualElection(t, experiments, 1)
		st := c.Studies[0]
		return testing.AllocsPerRun(3, func() {
			sr, err := runPooled(c, st, 1)
			if err != nil || !sr.Records[experiments-1].Accepted {
				t.Fatalf("study: err=%v", err)
			}
		})
	}
	const short, long = 20, 120
	got := (allocs(long) - allocs(short)) / (long - short)
	t.Logf("virtual election: %.1f allocations per experiment", got)
	if got > budget {
		t.Fatalf("an experiment allocates %.1f objects, budget %d", got, budget)
	}
}

// TestClusteredStudyAllocBudget is TestStudyAllocBudget's twin in the
// ledger's cluster-udp shape: the same election in real time over a
// loopback UDP cluster, one member per host. The figure is per experiment,
// long minus short study, so building the cluster once per Run does not
// count; what does is the wire, the runtime's remote half and the member
// protocol. It holds that a received payload is lent, not copied, that a
// remote note rides a spent delivery, that timelines are recycled at both
// ends and that the done reports reuse one waiter. A real-time election
// under CPU contention takes more rounds, and the runtime more goroutine
// structures, so the figure is the lower of two measurements, and the
// budget leaves room for a loaded machine: measured at 90.5-92.5 on an
// idle one when the budget was set, 86.8-95.0 in a -race build, and up to
// 111 with both cores busy; 250-251 (-race 256) while every received
// payload was copied, every remote note made a closure, every shipped
// timeline was decoded into fresh storage, every member's timelines and
// text buffer were new and every done report made a waiter. Most of what
// is left is gob decoding the application's payloads.
func TestClusteredStudyAllocBudget(t *testing.T) {
	budget := 125.0
	if raceBuild {
		budget = 130
	}
	allocs := func(experiments int) float64 {
		c := virtualElection(t, experiments, 1)
		c.VirtualTime = false
		c.Studies[0].Transport = transport.KindNameUDP
		return testing.AllocsPerRun(1, func() {
			res, err := Run(context.Background(), c)
			if err != nil || len(res.Studies[0].Records) != experiments || !res.Studies[0].Records[experiments-1].Completed {
				t.Fatalf("clustered study: err=%v", err)
			}
		})
	}
	const short, long = 4, 24
	perExperiment := func() float64 { return (allocs(long) - allocs(short)) / (long - short) }
	got := min(perExperiment(), perExperiment())
	t.Logf("clustered election: %.1f allocations per experiment", got)
	if got > budget {
		t.Fatalf("a clustered experiment allocates %.1f objects, budget %.0f", got, budget)
	}
}

// TestJournaledStudyAllocBudget is TestStudyAllocBudget's journaled twin,
// in the ledger's journaled-chaos shape: chaos matrix points of four
// experiments each — a crash-restart and a partition overlaid on the
// election — through RunMatrix with a checkpoint journal. The figure is
// per experiment, long minus short matrix, so a point's own costs (its
// study, the rebind of a pooled testbed to it, its applications) count,
// as they do in the ledger: it holds that each record's line is encoded
// once, straight into the commit queue, with no allocation of its own.
// Measured at 45.6 when the budget was set, 45.7 in a -race build; 64.7
// for both while every point started a pipeline of its own (three
// goroutines, channels, a claim counter and a records scan), attached a
// new chaos engine that parsed its calls again, rendered its action calls
// to fingerprint them, and every firing's revert and every process start
// allocated; 88.5 and
// 93.7 while each line was json.Marshal's (reflect over the record's maps,
// and encoding/json's pooled state, which a -race build's sync.Pool
// drops at random), each firing of a chaos action rendered its call, a
// partition derived its host pairs, the filter set threw its chain cache
// away and netem built a fresh generator; 161.2 and 167.8 while
// every point built a testbed of its own (runtime, virtual clock, hosts,
// daemons, registrations, refilled pools) and fresh analysis scratch, and
// its first experiments could not reuse an analysed experiment's
// timelines, stamps and raw record; 173.4 and about 183 while every point
// built its study, applications included, and parsed its state machines
// once per document text (87 more allocations per experiment when every
// point re-parsed them); 176.2 and 186.3 while no runtime phase reused an
// analysed experiment's scratch; 182.2 and 191.8 while every scheduled
// callback allocated its timer entry and each completion wait scheduled a
// timer of its own; 196.9 when the budget was first set (350.0 before the
// §5.7 and §3.5.6 text encoders appended into a caller's buffer instead of
// going through fmt and a fresh bufio.Writer, 378.0 before the analysis
// ran on a reused analysis.Checker, 388.0 before task bodies ran on pooled
// coroutines), 473.5 without the memo; a -race build then measured about
// 215.5 (399 before the appending encoders).
func TestJournaledStudyAllocBudget(t *testing.T) {
	const budget = 48
	allocs := func(points int) float64 {
		c, m := journaledChaos(t, points)
		return testing.AllocsPerRun(3, func() {
			c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
			res, err := RunMatrix(context.Background(), c, m)
			if err != nil || len(res.Points) != points {
				t.Fatalf("matrix: err=%v", err)
			}
		})
	}
	const short, long = 5, 30
	got := (allocs(long) - allocs(short)) / ((long - short) * chaosPerPoint)
	t.Logf("journaled chaos matrix: %.1f allocations per experiment", got)
	if got > budget {
		t.Fatalf("a journaled experiment allocates %.1f objects, budget %d", got, budget)
	}
}

// TestResumedMatrixAllocBudget holds what a resume of a fully journaled
// matrix costs per record, in TestJournaledStudyAllocBudget's shape: the
// journal is read and every point's records are looked up, but no point
// opens a testbed or builds an application. Long minus short matrix, so
// the journal's open and the matrix's overlays do not count. Measured at
// 17.22 when the budget was set, and at 17.37 in a -race build; 33.96 and
// 35.33 while every point built its study, applications included, before
// looking its records up.
func TestResumedMatrixAllocBudget(t *testing.T) {
	budget := 20.0
	if raceBuild {
		budget = 21
	}
	allocs := func(points int) float64 {
		c, m := journaledChaos(t, points)
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := RunMatrix(context.Background(), c, m); err != nil {
			t.Fatal(err)
		}
		c.Checkpoint.Resume = true
		return testing.AllocsPerRun(3, func() {
			res, err := RunMatrix(context.Background(), c, m)
			if err != nil || len(res.Points) != points {
				t.Fatalf("resume: err=%v", err)
			}
		})
	}
	const short, long = 5, 30
	got := (allocs(long) - allocs(short)) / ((long - short) * chaosPerPoint)
	t.Logf("resumed chaos matrix: %.2f allocations per record", got)
	if got > budget {
		t.Fatalf("a resumed record allocates %.2f objects, budget %.0f", got, budget)
	}
}

// chaosPerPoint is the experiment count of a journaledChaos point.
const chaosPerPoint = 4

// journaledChaos is the ledger's journaled-chaos shape at one worker: the
// election template under a crash-restart and a partition, one point per
// seed 1..points.
func journaledChaos(t testing.TB, points int) (*Campaign, *Matrix) {
	t.Helper()
	faults, err := ParseScenarioFaults("black bcrash (black:LEAD) once crashrestart(h1,3ms)\n" +
		"yellow ysplit (yellow:FOLLOW) once partition(h3|h1,h2) 4ms")
	if err != nil {
		t.Fatal(err)
	}
	c := virtualElection(t, chaosPerPoint, 1)
	m := &Matrix{
		Name:      "chaos",
		Scenarios: []Scenario{{Name: "chaos", Faults: faults}},
		Study:     c.Studies[0],
	}
	c.Studies = nil
	for s := 1; s <= points; s++ {
		m.Seeds = append(m.Seeds, int64(s))
	}
	return c, m
}

// TestReusedScaffoldingDoesNotAlias checks the ownership rule: whatever an
// experiment hands to the analysis stage and on into its record belongs to
// the receiver, however the testbed reuses its own scaffolding. A
// virtual-time chaos study (a crash-restart and a partition among the
// faults) runs at two workers with a journal; the journal encodes each
// record as soon as analyzeExperiment returns it, and every line must
// marshal byte-identically again after the study ends — by which time the
// worker has run later experiments on the same runtime. The verdicts and
// the per-machine timeline structure must also be a one-worker run's.
func TestReusedScaffoldingDoesNotAlias(t *testing.T) {
	const experiments = 64
	run := func(workers int) []string {
		c := virtualElection(t, experiments, workers,
			"black bcrash (black:LEAD) once crashrestart(h1,3ms)",
			"yellow ysplit (yellow:FOLLOW) once partition(h3|h1,h2) 4ms")
		dir := t.TempDir()
		c.Checkpoint = &Checkpoint{Dir: dir}
		res, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		records := res.Study("election").Records
		f, err := os.Open(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		journaled := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line journalLine[json.RawMessage]
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			jr := line.Record
			if jr == nil {
				continue // the header
			}
			journaled++
			again := recordLine(t, journalRecord[*ExperimentRecord]{
				Point: jr.Point, Index: jr.Index, Fingerprint: jr.Fingerprint, Experiment: records[jr.Index],
			})
			if again != sc.Text()+"\n" {
				t.Fatalf("workers=%d: record %d changed after analysis:\n  journaled: %s\n  at end:    %s",
					workers, jr.Index, sc.Bytes(), again)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if journaled != experiments {
			t.Fatalf("workers=%d: %d journaled records, want %d", workers, journaled, experiments)
		}
		var canon []string
		restarts := 0
		for _, r := range records {
			if r.Global == nil {
				t.Fatalf("workers=%d: experiment %d not analyzed: %s", workers, r.Index, r.AnalysisError)
			}
			g := canonGlobal(r.Global)
			canon = append(canon, fmt.Sprintf("%d accepted=%v\n%s", r.Index, r.Accepted, g))
			if strings.Contains(g, " "+election.EvRestart+" ") {
				restarts++
			}
		}
		if restarts == 0 {
			t.Errorf("workers=%d: no experiment restarted a node; the crash-restart path went unexercised", workers)
		}
		return canon
	}
	if seq, par := run(1), run(2); !slices.Equal(seq, par) {
		t.Error("verdicts or timeline structure of a two-worker run differ from a one-worker run's")
	}
}

// TestRecycledScratchDoesNotLeak checks the way back of an analysed
// experiment's scratch: its timelines, stamps and raw record, which a
// later runtime phase on the same worker records into. Under virtual time
// the sequence of runtime phases on one testbed is deterministic, so a
// one-worker study must record, experiment by experiment, what the same
// phases record into fresh scratch on a testbed of their own. The study is
// the election with a crash-restart fault, each start first writing as
// many notes as its host clock's millisecond reading modulo 4, so timeline
// lengths vary between experiments and stale entries would show. No two
// records may share an outcome table, and RunSingle's record keeps the
// timelines and stamps it ran with.
//
// Mutation checks, each run in a scratch copy of the module: reusing a
// spare's Entries without truncating them fails the record comparison,
// and handing back raw.outcomes — to a runtime phase that refills the
// spare's table — fails the shared-table check.
func TestRecycledScratchDoesNotLeak(t *testing.T) {
	const experiments = 24
	c := virtualElection(t, experiments, 1, "black bcrash (black:LEAD) once crashrestart(h1,3ms)")
	st := c.Studies[0]
	newApp := st.NewApp
	st.NewApp = func(p Point, nick string) (core.App, error) {
		app, err := newApp(p, nick)
		return notingApp{app}, err
	}
	sr, err := runPooled(c, st, 1)
	if err != nil {
		t.Fatal(err)
	}

	tb := openTestbed(t, c, st)
	var first *rawExperiment
	lengths := map[string]bool{}
	tables := map[uintptr]int{}
	for i, got := range sr.Records {
		raw, err := runRuntimePhase(c, st, tb, st.Name, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ls []int
		for _, l := range raw.locals {
			ls = append(ls, len(l.Entries))
		}
		lengths[fmt.Sprint(ls)] = true
		if i == 0 {
			first = raw
		}
		want, err := analyzeExperiment(c, st, raw, new(analyzer))
		if err != nil {
			t.Fatal(err)
		}
		if want.Global == nil {
			t.Fatalf("experiment %d not analyzed: %s", i, want.AnalysisError)
		}
		line := func(r *ExperimentRecord) string {
			return recordLine(t, journalRecord[*ExperimentRecord]{Point: st.Name, Index: i, Experiment: r})
		}
		if g, w := line(got), line(want); g != w {
			t.Fatalf("experiment %d differs from its run on fresh scratch:\n  study: %s\n  fresh: %s", i, g, w)
		}
		table := reflect.ValueOf(got.Outcomes).Pointer()
		if j, shared := tables[table]; shared {
			t.Fatalf("records %d and %d share one outcome table", j, i)
		}
		tables[table] = i
	}
	if len(lengths) < 2 {
		t.Fatal("every experiment recorded timelines of the same lengths: the test no longer exercises stale entries")
	}

	res, err := RunSingle(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Study(st.Name).Records[0]
	if !reflect.DeepEqual(rec.Locals, first.locals) || !slices.Equal(rec.Stamps, first.stamps) {
		t.Fatal("RunSingle's record does not keep the timelines and stamps it ran with")
	}
}

// runPooled runs study st of c through the pipeline at workers, on a pool
// of its own.
func runPooled(c *Campaign, st *Study, workers int) (*StudyResult, error) {
	pl := newPool(c)
	defer pl.close()
	units := make([]unit, 1)
	units[0].set(c, st, nil, "")
	if _, err := runPipeline(context.Background(), units, workers, pl.open, pl); err != nil {
		return nil, err
	}
	return &StudyResult{Name: st.Name, Records: units[0].records}, nil
}

// openTestbed opens an in-process testbed for study st of c, on a pool of
// its own that is closed when the test ends.
func openTestbed(t testing.TB, c *Campaign, st *Study) *localTestbed {
	t.Helper()
	pl := newPool(c)
	t.Cleanup(pl.close)
	tb, release := pl.open()
	if err := tb.bind(c, st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(nil) })
	return tb.(*localTestbed)
}

// notingApp writes as many notes as its host clock's millisecond reading
// modulo 4 before running the application.
type notingApp struct{ core.App }

func (a notingApp) Main(h *core.Handle) {
	for range h.Now() / 1e6 % 4 {
		h.Note("n")
	}
	a.App.Main(h)
}

// TestAnalysisWorkersShareNoArrays checks the analysis side of the
// ownership rule: each analysis worker builds and checks on its own
// analysis.Checker, and no record keeps any of its scratch. The records of
// a two-worker virtual-time study — analyzed by both workers, each reusing
// its checker from one experiment to the next — must pairwise share no
// backing array among their global timelines' events and machine lists
// and their reports' injection verdicts.
func TestAnalysisWorkersShareNoArrays(t *testing.T) {
	const experiments = 48
	c := virtualElection(t, experiments, 2, "yellow ysplit (yellow:FOLLOW) once partition(h3|h1,h2) 4ms")
	st := c.Studies[0]
	sr, err := runPooled(c, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	type extent struct {
		lo, hi uintptr
		what   string
	}
	var arrays []extent
	add := func(s any, what string, index int) {
		v := reflect.ValueOf(s)
		if v.Cap() == 0 {
			return
		}
		lo := v.Pointer()
		arrays = append(arrays, extent{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size(), fmt.Sprintf("record %d %s", index, what)})
	}
	injections := 0
	for _, r := range sr.Records {
		if r.Global == nil || r.Report == nil {
			t.Fatalf("experiment %d not analyzed: %s", r.Index, r.AnalysisError)
		}
		add(r.Global.Events, "Global.Events", r.Index)
		add(r.Global.Machines, "Global.Machines", r.Index)
		add(r.Report.Injections, "Report.Injections", r.Index)
		injections += len(r.Report.Injections)
	}
	if injections == 0 {
		t.Fatal("no experiment injected a fault; the verdicts went unexercised")
	}
	slices.SortFunc(arrays, func(a, b extent) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(arrays); i++ {
		if arrays[i].lo < arrays[i-1].hi {
			t.Fatalf("%s shares a backing array with %s", arrays[i].what, arrays[i-1].what)
		}
	}
}
