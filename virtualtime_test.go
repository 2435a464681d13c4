package loki_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	loki "repro"
	"repro/internal/vclock"
)

// virtualParityDoc builds the campaign file the virtual-time tests share:
// an election study over three hosts with hidden clock errors, a
// dormancy-delayed crash fault on the machine that enters ELECT first.
// The fault triggers on black's own ELECT entry, so the injection set is
// deterministic under any clocks — what makes real-vs-virtual record
// parity a meaningful assertion rather than a timing lottery.
func virtualParityDoc(virtual bool, experiments, workers int, checkpointDir string) []byte {
	type m = map[string]any
	doc := m{
		"name":         "vparity",
		"virtual_time": virtual,
		"workers":      workers,
		"hosts": []any{
			m{"name": "h1"},
			m{"name": "h2", "offset_ns": 4e6, "drift_ppm": 70},
			m{"name": "h3", "offset_ns": -3e6, "drift_ppm": -40},
		},
		"sync": m{"messages": 8, "transit": "20µs", "spacing": "40µs"},
		"studies": []any{m{
			"name": "s1", "app": "election",
			"nodes": []any{
				m{"name": "black", "host": "h1"},
				m{"name": "green", "host": "h2"},
				m{"name": "yellow", "host": "h3"},
			},
			"faults":      []any{"black bfault1 (black:ELECT) once"},
			"experiments": experiments,
			"runfor":      "40ms",
			"dormancy":    "8ms",
			"timeout":     "10s",
			"seed":        1,
		}},
	}
	if checkpointDir != "" {
		doc["checkpoint"] = m{"dir": checkpointDir}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}

func runVirtualParity(t *testing.T, docBytes []byte) *loki.StudyOutcome {
	t.Helper()
	cfg, err := loki.ParseCampaignFile(docBytes)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loki.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign == nil || len(res.Campaign.Studies) != 1 {
		t.Fatal("expected one study result")
	}
	return res.Campaign.Studies[0]
}

// TestVirtualTimeParity runs the same campaign on the wall clock and on
// the virtual clock and requires identical canonical records: acceptance,
// outcomes, injection verdicts, analysis errors. The virtual run must also
// finish far faster than the simulated time it covers — the point of the
// engine. Run under -race in CI.
func TestVirtualTimeParity(t *testing.T) {
	const experiments = 4

	realStart := time.Now()
	realOut := runVirtualParity(t, virtualParityDoc(false, experiments, 1, ""))
	realElapsed := time.Since(realStart)

	virtStart := time.Now()
	virtOut := runVirtualParity(t, virtualParityDoc(true, experiments, 1, ""))
	virtElapsed := time.Since(virtStart)

	for i := range realOut.Records {
		got, want := canonRecord(virtOut.Records[i]), canonRecord(realOut.Records[i])
		if got != want {
			t.Errorf("experiment %d diverges:\n--- virtual ---\n%s--- real ---\n%s", i, got, want)
		}
	}
	if len(realOut.AcceptedGlobals()) == 0 {
		t.Error("parity is vacuous: no experiment accepted")
	}
	t.Logf("real %v, virtual %v (%.1fx)", realElapsed, virtElapsed,
		float64(realElapsed)/float64(virtElapsed))
	// Each experiment covers >=48ms of simulated waiting (runfor + sync
	// phases); virtual time must collapse most of it. The bar is modest —
	// 3x — to stay robust on loaded CI machines; the examples/chaos run in
	// EXPERIMENTS.md demonstrates the full >=10x.
	if virtElapsed > realElapsed/3 {
		t.Errorf("virtual run took %v vs real %v; expected at least 3x faster", virtElapsed, realElapsed)
	}
}

// TestVirtualTimeByteIdenticalJournal runs the same virtual campaign twice
// (Workers=1) and requires the checkpoint journals to be byte-identical:
// under virtual time even the raw clock readings — bounds, event
// timestamps, sync stamps — are reproducible, not just the decisions.
func TestVirtualTimeByteIdenticalJournal(t *testing.T) {
	read := func(dir string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "checkpoint.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	runVirtualParity(t, virtualParityDoc(true, 3, 1, dir1))
	runVirtualParity(t, virtualParityDoc(true, 3, 1, dir2))
	j1, j2 := read(dir1), read(dir2)
	if string(j1) != string(j2) {
		t.Errorf("two virtual runs journaled different bytes:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}

// TestVirtualTimeClockStepBounds injects a 3ms clock step on h2 mid-
// experiment and requires the analysis to (a) suspect h2, and (b) bound
// the step's magnitude from the two per-phase convex-hull fits with an
// interval containing the injected delta.
func TestVirtualTimeClockStepBounds(t *testing.T) {
	type m = map[string]any
	doc, err := json.Marshal(m{
		"name":         "vstep",
		"virtual_time": true,
		"workers":      1,
		"hosts": []any{
			m{"name": "h1"},
			m{"name": "h2", "offset_ns": 4e6, "drift_ppm": 70},
			m{"name": "h3", "offset_ns": -3e6, "drift_ppm": -40},
		},
		// Step attribution fits the two sync phases separately and needs
		// each phase's alpha interval narrow enough to be disjoint across
		// the 3ms step: a short sync window extrapolates its slope
		// uncertainty over the whole experiment and washes the step out,
		// so this test syncs harder than the parity campaign does.
		"sync": m{"messages": 20, "transit": "20µs", "spacing": "200µs"},
		"studies": []any{m{
			"name": "step", "app": "election",
			"nodes": []any{
				m{"name": "black", "host": "h1"},
				m{"name": "green", "host": "h2"},
				m{"name": "yellow", "host": "h3"},
			},
			"faults":      []any{"black step1 (black:ELECT) once clockstep(h2,3ms)"},
			"experiments": 2,
			"runfor":      "40ms",
			"timeout":     "10s",
			"seed":        1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := runVirtualParity(t, doc)
	const delta = vclock.Ticks(3e6)
	suspected := 0
	for _, rec := range out.Records {
		if !rec.ClockStepSuspected {
			continue
		}
		suspected++
		b, ok := rec.ClockStepBounds["h2"]
		if !ok {
			t.Fatalf("experiment %d: h2 suspected (%v) but no step bound", rec.Index, rec.ClockStepHosts)
		}
		if b.Lo > delta || b.Hi < delta {
			t.Errorf("experiment %d: step bound [%v, %v] excludes the injected %v",
				rec.Index, b.Lo.Duration(), b.Hi.Duration(), delta.Duration())
		}
		if b.Lo > b.Hi {
			t.Errorf("experiment %d: inverted bound [%v, %v]", rec.Index, b.Lo, b.Hi)
		}
	}
	if suspected == 0 {
		t.Fatal("no experiment suspected the injected clock step")
	}
}

// TestVirtualTimeRejectsSockets: the validation surface. Virtual time
// cannot drive socket transports (their latency is real wall-clock time)
// or cluster peers (separate processes keep real clocks).
func TestVirtualTimeRejectsSockets(t *testing.T) {
	base := virtualParityDoc(true, 1, 1, "")
	cfg, err := loki.ParseCampaignFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loki.Open(cfg, loki.WithTransport(loki.TransportUDP)); err == nil {
		t.Error("Open accepted virtual time over a UDP transport override")
	}
	if _, err := loki.Open(cfg, loki.WithCluster(loki.ClusterConfig{
		Name: "p1", Peers: map[string]string{"p1": "127.0.0.1:0"},
	})); err == nil {
		t.Error("Open accepted virtual time in cluster mode")
	}

	var raw map[string]any
	if err := json.Unmarshal(base, &raw); err != nil {
		t.Fatal(err)
	}
	raw["transport"] = "udp"
	doc, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = loki.ParseCampaignFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := loki.ValidateCampaignFile(cfg); err == nil {
		t.Error("campaign file with virtual_time over udp validated")
	}
}
