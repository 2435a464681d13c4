package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestClusterTraceMergeAndMetricsPull drives a multi-runtime loopback
// cluster with tracing and metrics enabled and checks the fleet
// observability contract: every experiment leaves one merged trace
// artifact containing the coordinator's phase spans plus a lane per
// member, the Chrome export renders all lanes, and the coordinator's
// registry ends up holding member-labeled series pulled at seal.
func TestClusterTraceMergeAndMetricsPull(t *testing.T) {
	const experiments = 2
	c := stepCampaign(t, experiments, 1)
	dir := t.TempDir()
	c.Obs = &obs.Sink{TraceDir: dir, Metrics: obs.NewRegistry()}

	sr, err := runClustered(context.Background(), c, c.Studies[0], transport.KindNameInproc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != experiments {
		t.Fatalf("records = %d, want %d", len(sr.Records), experiments)
	}

	// Loopback peers are named after the hosts they own; h1's owner
	// coordinates, so h2 and h3 are the member lanes.
	for _, name := range []string{"exp000.trace.jsonl", "exp001.trace.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, "steps", name))
		if err != nil {
			t.Fatalf("merged trace artifact missing: %v", err)
		}
		tr, err := obs.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.Members(); len(got) != 2 || got[0] != "h2" || got[1] != "h3" {
			t.Errorf("%s: member lanes = %v, want [h2 h3]", name, got)
		}
		lanes := map[string]int{}
		for _, s := range tr.Spans() {
			lanes[s.Member]++
		}
		// The coordinator contributes the phase spans (reset, both sync
		// mini-phases, experiment, analyze); each member lane carries at
		// least its experiment span.
		if lanes[""] < 4 {
			t.Errorf("%s: coordinator lane has %d spans, want >= 4", name, lanes[""])
		}
		for _, m := range []string{"h2", "h3"} {
			if lanes[m] == 0 {
				t.Errorf("%s: no spans merged from member %s", name, m)
			}
		}
		var chrome bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatalf("%s: WriteChrome: %v", name, err)
		}
		for _, w := range []string{`"name": "coordinator"`, `"name": "h2"`, `"name": "h3"`} {
			if !strings.Contains(chrome.String(), w) {
				t.Errorf("%s: chrome export missing lane %s", name, w)
			}
		}
	}

	// The metrics pull at study seal imports every member's local
	// series, spliced with a member label, into the coordinator's
	// registry — the single fleet surface metrics.json snapshots.
	var prom strings.Builder
	if err := c.Obs.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, w := range []string{`member="h2"`, `member="h3"`} {
		if !strings.Contains(out, w) {
			t.Errorf("registry missing pulled member series %s in:\n%s", w, out)
		}
	}
	// The sync rounds against each member must have produced offset
	// estimates (the trace merge depends on them).
	for _, m := range []string{"h2", "h3"} {
		if !strings.Contains(out, `loki_member_sync_rounds_ok_total{member="`+m+`"}`) {
			t.Errorf("no sync-round accounting for member %s:\n%s", m, out)
		}
	}
	// No double member labels from the loopback shared registry.
	if strings.Contains(out, `member="h2",member=`) || strings.Contains(out, `member="h3",member=`) {
		t.Errorf("duplicate member label in:\n%s", out)
	}
}

// TestClusterEventMemberAttribution: progress events emitted by a
// clustered study carry the coordinator's peer name, so multi-process
// watchers can tell which process reported.
func TestClusterEventMemberAttribution(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	var events []obs.Event
	c.Obs = &obs.Sink{}
	c.Obs.Watch(func(ev obs.Event) { events = append(events, ev) })
	if _, err := runClustered(context.Background(), c, c.Studies[0], transport.KindNameInproc, nil); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from clustered run")
	}
	for _, ev := range events {
		if ev.Member != "h1" {
			t.Errorf("event %s exp %d: member %q, want h1 (the coordinator)", ev.Kind, ev.Index, ev.Member)
		}
	}
}
