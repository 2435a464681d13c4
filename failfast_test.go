package loki_test

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	loki "repro"
	"repro/app"
)

// failFastCampaign is a Go-wired campaign of two studies over hosts h1 and
// h2. s1 runs three experiments; s2 is where each case plants its mistake.
// Every app body adds one to bodies, so a test can tell whether anything
// ran.
func failFastCampaign(t *testing.T, bodies *atomic.Int64) *loki.Campaign {
	t.Helper()
	sm, err := app.ParseSpec(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	study := func(name string, experiments int) *loki.Study {
		st := &loki.Study{Name: name, Experiments: experiments, Timeout: 5 * time.Second}
		for i, nick := range []string{"black", "green"} {
			body := app.New(func(h *app.Handle) {
				bodies.Add(1)
				h.NotifyEvent("RUN")
				h.Sleep(2 * time.Millisecond)
				h.NotifyEvent("finish")
			})
			st.Nodes = append(st.Nodes, loki.NodeDef{Nickname: nick, Spec: sm, App: body})
			st.Placement = append(st.Placement, loki.NodeEntry{Nickname: nick, Host: []string{"h1", "h2"}[i]})
		}
		return st
	}
	return &loki.Campaign{
		Name:    "failfast",
		Hosts:   []loki.HostDef{{Name: "h1"}, {Name: "h2", Clock: loki.ClockConfig{Offset: 1e6}}},
		Workers: 1,
		Studies: []*loki.Study{study("s1", 3), study("s2", 2)},
		Sync:    loki.SyncConfig{Messages: 6, Transit: 10 * time.Microsecond},
	}
}

// failFastDoc is failFastCampaign as a campaign file, decoded into a map a
// case can edit: the same names, hosts, studies and counts, with the
// election app in place of the hand-written bodies.
func failFastDoc() map[string]any {
	type m = map[string]any
	study := func(name string, experiments int) m {
		return m{
			"name": name, "app": "election",
			"nodes":       []any{m{"name": "black", "host": "h1"}, m{"name": "green", "host": "h2"}},
			"experiments": experiments, "runfor": "20ms", "timeout": "5s",
		}
	}
	return m{
		"name":    "failfast",
		"workers": 1,
		"hosts":   []any{m{"name": "h1"}, m{"name": "h2", "offset_ns": 1e6}},
		"sync":    m{"messages": 6, "transit": "10µs"},
		"studies": []any{study("s1", 3), study("s2", 2)},
	}
}

// parseDoc encodes an edited failFastDoc and parses it back as a file.
func parseDoc(t *testing.T, doc map[string]any) *loki.CampaignFile {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := loki.ParseCampaignFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustParseFaults parses fault specification lines or fails the test.
func mustParseFaults(t *testing.T, doc string) []loki.FaultSpec {
	t.Helper()
	fs, err := loki.ParseFaultSpecs(doc)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// refusedBeforeRun opens c and requires Open to refuse it with an error
// that contains want and names the study s2 at most once, with no app body
// run.
func refusedBeforeRun(t *testing.T, name string, c *loki.Campaign, bodies *atomic.Int64, want string) {
	t.Helper()
	s, err := loki.Open(c)
	if err == nil {
		s.Close()
		t.Errorf("%s: Open accepted the campaign", name)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q does not contain %q", name, err, want)
	}
	if n := strings.Count(err.Error(), `"s2"`); n > 1 {
		t.Errorf("%s: error names the study %d times: %q", name, n, err)
	}
	if n := bodies.Load(); n != 0 {
		t.Errorf("%s: %d app bodies ran before the refusal", name, n)
	}
}

// TestCampaignFileActionTypoRefused: a misspelled chaos action or an
// unknown host in a scenario of the checked-in chaos matrix — not the
// scenario of the matrix's first point — is refused by
// ValidateCampaignFile (what lokirun -dry-run runs) and by Open, with the
// scenario named once.
func TestCampaignFileActionTypoRefused(t *testing.T) {
	example, err := os.ReadFile("examples/chaos/campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*loki.CampaignFile{}
	for name, edit := range map[string][2]string{
		"action": {"partition(h1|h2,h3)", "partitoin(h1|h2,h3)"},
		"host":   {"crashrestart(h2,", "crashrestart(h9,"},
	} {
		if !strings.Contains(string(example), edit[0]) {
			t.Fatalf("examples/chaos/campaign.json no longer contains %q", edit[0])
		}
		f, err := loki.ParseCampaignFile([]byte(strings.Replace(string(example), edit[0], edit[1], 1)))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	for name, f := range files {
		if err := loki.ValidateCampaignFile(f); err == nil {
			t.Errorf("%s: ValidateCampaignFile accepted the typo", name)
		} else if n := strings.Count(err.Error(), `scenario "`); n != 1 {
			t.Errorf("%s: error names the scenario %d times: %q", name, n, err)
		}
		if s, err := loki.Open(f); err == nil {
			s.Close()
			t.Errorf("%s: Open accepted the typo", name)
		}
	}
}

// TestCampaignRulesOneOwner feeds each rule about a runnable campaign
// through a Go-wired Open and through a campaign file — Open and
// ValidateCampaignFile — and requires all three to refuse it with the same
// message: one owner, campaign.Validate, states each rule once. The
// Go-wired side is refused before the first study's experiments run — not
// when the bad second study starts, and never by a panic in a worker
// goroutine, as a repeated host once did.
func TestCampaignRulesOneOwner(t *testing.T) {
	type m = map[string]any
	s2 := func(doc m) m { return doc["studies"].([]any)[1].(m) }
	rules := []struct {
		name   string
		goMut  func(c *loki.Campaign)
		docMut func(doc m)
		want   string
	}{
		{"negative campaign workers",
			func(c *loki.Campaign) { c.Workers = -1 },
			func(doc m) { doc["workers"] = -1 },
			"campaign: Workers is -1"},
		{"negative study workers",
			func(c *loki.Campaign) { c.Studies[1].Workers = -2 },
			func(doc m) { s2(doc)["workers"] = -2 },
			`campaign: study "s2": Workers is -2`},
		{"zero experiments",
			func(c *loki.Campaign) { c.Studies[1].Experiments = 0 },
			func(doc m) { s2(doc)["experiments"] = 0 },
			`campaign: study "s2": Experiments is 0`},
		{"unknown transport",
			func(c *loki.Campaign) { c.Studies[1].Transport = "udpp" },
			func(doc m) { s2(doc)["transport"] = "udpp" },
			`campaign: study "s2": unknown transport "udpp"`},
		{"virtual time over a socket",
			func(c *loki.Campaign) { c.VirtualTime, c.Studies[1].Transport = true, "udp" },
			func(doc m) { doc["virtual_time"], s2(doc)["transport"] = true, "udp" },
			`campaign: study "s2": virtual time requires the inproc transport, not "udp"`},
		{"misspelled chaos action",
			func(c *loki.Campaign) {
				c.Studies[1].Nodes[0].Faults = mustParseFaults(t, "bcut (black:DONE) once partitoin(h1|h2) 10ms")
			},
			func(doc m) { s2(doc)["faults"] = []any{"black bcut (black:LEAD) once partitoin(h1|h2) 10ms"} },
			`campaign: study "s2": chaos: node "black" fault "bcut"`},
		{"chaos action on an unknown host",
			func(c *loki.Campaign) {
				c.Studies[1].Nodes[0].Faults = mustParseFaults(t, "bcut (black:DONE) once partition(h1|h9) 10ms")
			},
			func(doc m) { s2(doc)["faults"] = []any{"black bcut (black:LEAD) once partition(h1|h9) 10ms"} },
			`campaign: study "s2": chaos: node "black" fault "bcut": action partition(h1|h9) 10ms references unknown host "h9"`},
		{"repeated study name",
			func(c *loki.Campaign) { c.Studies[1].Name = "s1" },
			func(doc m) { s2(doc)["name"] = "s1" },
			`campaign: duplicate study name "s1"`},
		{"repeated host",
			func(c *loki.Campaign) { c.Hosts = append(c.Hosts, loki.HostDef{Name: "h1"}) },
			func(doc m) { doc["hosts"] = append(doc["hosts"].([]any), m{"name": "h1"}) },
			`campaign: duplicate host "h1"`},
	}
	for _, r := range rules {
		var bodies atomic.Int64
		c := failFastCampaign(t, &bodies)
		r.goMut(c)
		refusedBeforeRun(t, r.name+" (Go)", c, &bodies, r.want)

		doc := failFastDoc()
		r.docMut(doc)
		f := parseDoc(t, doc)
		if err := loki.ValidateCampaignFile(f); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s (file): ValidateCampaignFile error %v, want %q", r.name, err, r.want)
		}
		if s, err := loki.Open(f); err == nil {
			s.Close()
			t.Errorf("%s (file): Open accepted the campaign", r.name)
		} else if !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s (file): Open error %q, want %q", r.name, err, r.want)
		}
	}

	// The unchanged campaign passes both ways.
	var bodies atomic.Int64
	if s, err := loki.Open(failFastCampaign(t, &bodies)); err != nil {
		t.Errorf("base campaign refused: %v", err)
	} else {
		s.Close()
	}
	if err := loki.ValidateCampaignFile(parseDoc(t, failFastDoc())); err != nil {
		t.Errorf("base campaign file refused: %v", err)
	}
}
