package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestReusedTestbedMatchesFresh: a testbed outlives its study or matrix
// point, rebound to the next one, and must run it exactly as a testbed
// built for it alone. A virtual-time matrix of three scenarios (no
// actions; a partition, a lossy link and a crash-restart; a clock step)
// over two latency profiles and three seeds, on hosts one of which reads
// with jitter and with a watchdog whose timeout the election's quiet
// stretches exceed in about half the experiments, journals at Workers 1 — one testbed runs every point
// in turn — and at Workers 2, where two testbeds take the points in
// whatever order their workers claim them; each point's share is one
// worker, so every record's journal line must equal, byte for byte, the
// line of the same point run alone as a one-point matrix. A Run of three
// studies whose node sets differ (three nodes, two of the same
// definitions, three again) must likewise journal each study as it
// journals alone.
//
// Mutation checks, each in a scratch copy of the module (EXPERIMENTS.md,
// "A testbed outlives its point"): skipping the virtual clock's rewind,
// the host clocks' reset, or the watchdog's stop and restart, or keeping a
// registration whose Faults changed, fails this test.
// TestRewindMatchesFresh (internal/core) is the check of the traffic
// shaping reseed and the fault-action hook's detach, which no journal
// shows: nothing consults either without action faults, and every point
// with action faults attaches and reseeds its own chaos engine.
func TestReusedTestbedMatchesFresh(t *testing.T) {
	split, err := ParseScenarioFaults("black bcrash (black:LEAD) once crashrestart(h1,3ms)\n" +
		"yellow ysplit (yellow:FOLLOW) once partition(h3|h1,h2) 4ms\n" +
		"green gdrop (green:FOLLOW) once drop(h2,*,0.5) 5ms")
	if err != nil {
		t.Fatal(err)
	}
	step, err := ParseScenarioFaults("green gstep (green:FOLLOW) once clockstep(h2,2ms)")
	if err != nil {
		t.Fatal(err)
	}
	campaign := func(workers int) *Campaign {
		c := virtualElection(t, 3, workers)
		c.Hosts[1].Clock.Jitter, c.Hosts[1].Clock.Seed = 300, 5
		c.Runtime.WatchdogInterval, c.Runtime.WatchdogTimeout = 700*time.Microsecond, 18*time.Millisecond
		return c
	}
	full := &Matrix{
		Name:      "rebind",
		Scenarios: []Scenario{{Name: "baseline"}, {Name: "split", Faults: split}, {Name: "step", Faults: step}},
		Latencies: []LatencyProfile{
			{Name: "lan", Local: 20 * time.Microsecond, Remote: 150 * time.Microsecond},
			{Name: "wan", Local: 50 * time.Microsecond, Remote: 2 * time.Millisecond},
		},
		Seeds: []int64{1, 2, 3},
		Study: campaign(1).Studies[0],
	}
	runMatrix := func(workers int, m *Matrix) map[string]string {
		c := campaign(workers)
		c.Studies = nil
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := RunMatrix(context.Background(), c, m); err != nil {
			t.Fatal(err)
		}
		return journalLines(t, c.Checkpoint.Dir)
	}
	alone := map[string]string{}
	for _, p := range full.Points() {
		one := *full
		one.Scenarios, one.Latencies, one.Seeds = []Scenario{p.Scenario}, []LatencyProfile{p.Latency}, []int64{p.Seed}
		for k, line := range runMatrix(1, &one) {
			alone[k] = line
		}
	}
	if len(alone) != len(full.Points())*3 {
		t.Fatalf("the points alone journaled %d records, want %d", len(alone), len(full.Points())*3)
	}
	var watchdog, stepped, parted bool
	for _, line := range alone {
		// The watchdog crashes the whole election or nothing of it.
		watchdog = watchdog || strings.Contains(line, `"green":"crashed","yellow":"crashed"`)
		stepped = stepped || strings.Contains(line, `"ClockStepSuspected":true`)
		parted = parted || strings.Contains(line, "ysplit")
	}
	if !watchdog || !stepped || !parted {
		t.Fatalf("watchdog crashes %v, clock steps %v, partitions %v: the matrix no longer exercises what it must", watchdog, stepped, parted)
	}
	for _, workers := range []int{1, 2} {
		compareLines(t, "workers="+strconv.Itoa(workers), runMatrix(workers, full), alone)
	}

	// Three studies on one testbed: the first's three nodes, two of its
	// definitions (yellow's registration dropped, black's and green's kept
	// with new applications), then all three again (yellow's rebuilt).
	a := campaign(1).Studies[0]
	b := *a
	b.Name, b.Nodes, b.Placement = "pair", a.Nodes[:2], a.Placement[:2]
	again := *a
	again.Name = "again"
	runStudies := func(studies ...*Study) map[string]string {
		c := campaign(1)
		c.Studies = studies
		c.Checkpoint = &Checkpoint{Dir: t.TempDir()}
		if _, err := Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		return journalLines(t, c.Checkpoint.Dir)
	}
	fresh := map[string]string{}
	for _, st := range []*Study{a, &b, &again} {
		for k, line := range runStudies(st) {
			fresh[k] = line
		}
	}
	compareLines(t, "three studies", runStudies(a, &b, &again), fresh)
}

// TestTestbedAttachesOneChaosEngine: a testbed attaches its chaos engine
// at the first point it runs that has action faults, and reattaches that
// engine at every later one, of whichever scenario, with points without
// actions between. TestReattachedEngineParsesEachCallOnce (internal/chaos)
// checks that a reattached engine parses each distinct call once.
func TestTestbedAttachesOneChaosEngine(t *testing.T) {
	split, err := ParseScenarioFaults("yellow ysplit (yellow:FOLLOW) once partition(h3|h1,h2) 4ms")
	if err != nil {
		t.Fatal(err)
	}
	step, err := ParseScenarioFaults("green gstep (green:FOLLOW) once clockstep(h2,2ms)")
	if err != nil {
		t.Fatal(err)
	}
	c := virtualElection(t, 1, 1)
	m := &Matrix{
		Name:      "engine",
		Scenarios: []Scenario{{Name: "baseline"}, {Name: "split", Faults: split}, {Name: "step", Faults: step}},
		Seeds:     []int64{1, 2},
		Study:     c.Studies[0],
	}
	c.Studies = nil
	x, err := validate(c, m)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPool(c)
	t.Cleanup(pl.close)
	opened, release := pl.open()
	t.Cleanup(func() { release(nil) })
	tb := opened.(*localTestbed)
	var first *chaos.Engine
	for _, p := range append(x.pts, x.pts...) {
		pc, ps := pointCampaign(c, m, &p), pointStudy(x.overlays[p.scenario], &p, p.Name())
		if err := tb.bind(&pc, &ps); err != nil {
			t.Fatal(err)
		}
		if _, err := runRuntimePhase(&pc, &ps, tb, p.Name(), 0, nil); err != nil {
			t.Fatal(err)
		}
		switch {
		case first == nil:
			first = tb.actions
		case tb.actions != first:
			t.Fatalf("point %s: the testbed attached a second chaos engine", p.Name())
		}
	}
	if first == nil {
		t.Fatal("no point attached a chaos engine")
	}
}

// journalLines returns the record lines of the journal under dir, by
// point and index.
func journalLines(t *testing.T, dir string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line journalLine[json.RawMessage]
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if r := line.Record; r != nil {
			lines[r.Point+"#"+strconv.Itoa(r.Index)] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// compareLines fails the test for every record of got whose line is not
// want's.
func compareLines(t *testing.T, run string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", run, len(got), len(want))
	}
	bad := 0
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if got[k] != want[k] {
			if bad++; bad <= 3 {
				t.Errorf("%s: record %s differs from its run on a fresh testbed:\n  reused: %s\n  fresh:  %s", run, k, got[k], want[k])
			}
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d records differ in all", run, bad)
	}
}
