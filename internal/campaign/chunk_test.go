package campaign

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/timeline"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// bigNoteTimeline builds a local timeline whose §3.5.6 encoding exceeds
// the transport frame budget: one host change followed by notes.
func bigNoteTimeline(t testing.TB, owner, host string, notes int) *timeline.Local {
	t.Helper()
	l := &timeline.Local{Meta: timeline.Meta{
		Owner:    owner,
		Machines: []string{owner},
		Hosts:    []string{host},
	}}
	l.Entries = append(l.Entries, timeline.Entry{Kind: timeline.HostChange, Host: host, Time: 1})
	pad := strings.Repeat("x", 48)
	for i := 0; i < notes; i++ {
		l.Entries = append(l.Entries, timeline.Entry{
			Kind: timeline.Note, Host: host,
			Text: fmt.Sprintf("padding %06d %s", i, pad),
			Time: vclock.Ticks(2 + i),
		})
	}
	return l
}

// TestResultFramesChunking: a timeline larger than one frame must be
// chunked across frames — each under the transport limit — and
// reassemble to the original document; only an unencodable timeline
// lands in Dropped.
func TestResultFramesChunking(t *testing.T) {
	big := bigNoteTimeline(t, "beta", "h2", 2500)
	bigDoc, err := timeline.EncodeString(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigDoc) <= 2*transport.MaxFrame {
		t.Fatalf("fixture too small to chunk twice: %d bytes", len(bigDoc))
	}
	small := bigNoteTimeline(t, "alpha", "h2", 1)
	smallDoc, err := timeline.EncodeString(small)
	if err != nil {
		t.Fatal(err)
	}
	unencodable := &timeline.Local{
		Meta:    timeline.Meta{Owner: "broken"},
		Entries: []timeline.Entry{{Kind: timeline.Kind(99)}},
	}
	outcomes := map[string]string{"alpha": "exited", "beta": "exited"}

	logf := func(string, ...interface{}) {}
	frames, _ := resultFrames(nil, nil, logf, "b", "a", 4, []*timeline.Local{big, small, unencodable}, outcomes)

	if len(frames) < 4 {
		t.Fatalf("got %d frames, want the big timeline chunked into at least 3 plus the small one", len(frames))
	}
	var docs []string
	var pending strings.Builder
	for i, f := range frames {
		if f.Index != 4 || f.Seq != i || f.Total != len(frames) {
			t.Errorf("frame %d: header %+v", i, f)
		}
		if len(f.Dropped) != 1 || f.Dropped[0] != "broken" {
			t.Errorf("frame %d: Dropped = %v, want [broken]", i, f.Dropped)
		}
		if _, err := transport.Marshal(ctrlFrame("b", "a", opResult, f)); err != nil {
			t.Errorf("frame %d: %v", i, err)
		}
		if f.Outcomes["beta"] != "exited" {
			t.Errorf("frame %d lost the outcomes", i)
		}
		pending.WriteString(f.Doc)
		if !f.More {
			docs = append(docs, pending.String())
			pending.Reset()
		}
	}
	if pending.Len() > 0 {
		t.Fatalf("frame stream ends mid-timeline (%d bytes pending)", pending.Len())
	}
	if len(docs) != 2 || docs[0] != bigDoc || docs[1] != smallDoc {
		t.Fatalf("reassembled %d documents; big match=%v small match=%v",
			len(docs), len(docs) > 0 && docs[0] == bigDoc, len(docs) > 1 && docs[1] == smallDoc)
	}
}

// TestResultFramesFitWithManyOutcomes: outcomes and the dropped list are
// repeated in every result frame, so a chunk must leave them exactly the
// room they take. With 120 outcomes under longish nicknames next to a
// 100 KB timeline, a fixed 4 KB reserve let the first frame reach 62,437
// bytes, which the transport refuses to send: that member's result could
// never arrive.
func TestResultFramesFitWithManyOutcomes(t *testing.T) {
	big := bigNoteTimeline(t, "node-with-a-longish-nickname-000", "h2", 1400)
	doc, err := timeline.EncodeString(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) < 100*1024 {
		t.Fatalf("fixture is %d bytes, want at least 100 KB", len(doc))
	}
	outcomes := make(map[string]string)
	for i := 0; i < 120; i++ {
		outcomes[fmt.Sprintf("node-with-a-longish-nickname-%03d", i)] = "exited"
	}
	unencodable := &timeline.Local{
		Meta:    timeline.Meta{Owner: "node-with-a-longish-nickname-119"},
		Entries: []timeline.Entry{{Kind: timeline.Kind(99)}},
	}
	logf := func(string, ...interface{}) {}
	frames, _ := resultFrames(nil, nil, logf, "beta", "alpha", 7, []*timeline.Local{big, unencodable}, outcomes)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want the timeline chunked", len(frames))
	}
	var got strings.Builder
	for i, f := range frames {
		body, err := transport.Marshal(ctrlFrame("beta", "alpha", opResult, f))
		if err != nil {
			t.Errorf("frame %d of %d: %v", i, len(frames), err)
		}
		if i == 0 && len(body) != transport.MaxFrame {
			t.Errorf("first frame is %d bytes, want a full %d-byte frame", len(body), transport.MaxFrame)
		}
		got.WriteString(f.Doc)
	}
	if got.String() != doc {
		t.Fatal("chunks do not reassemble the timeline")
	}
}

// noisyStepCampaign is stepCampaign with beta's application additionally
// recording enough notes that its local timeline encodes far beyond one
// transport frame.
func noisyStepCampaign(t testing.TB, notes int) *Campaign {
	t.Helper()
	c := stepCampaign(t, 1, 1)
	pad := strings.Repeat("x", 48)
	c.Studies[0].NewApp = func(p Point, nick string) (core.App, error) {
		if nick != "beta" {
			return stepApp(p, nick)
		}
		return probe.NewInstrumented(func(h *core.Handle) {
			for k := 0; k < notes; k++ {
				h.Note(fmt.Sprintf("padding %06d %s", k, pad))
			}
			h.NotifyEvent("S1")
			h.NotifyEvent("GO")
			h.NotifyEvent("GO2")
		}).On("betafault", probe.NoteFault()), nil
	}
	return c
}

// TestChunkedTimelineOverUDP is the chunked-streaming acceptance test:
// a clustered experiment over UDP loopback whose remote timeline exceeds
// the 60 KB frame budget must be accepted with the full timeline
// reassembled on the coordinator — before the fix it was dropped and the
// experiment discarded with "timelines not collected". Run under -race
// in CI.
func TestChunkedTimelineOverUDP(t *testing.T) {
	const notes = 2200
	c := noisyStepCampaign(t, notes)
	c.Studies[0].Transport = "udp"
	res, err := RunSingle(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Studies[0].Records[0]
	stamps, locals := rec.Stamps, rec.Locals
	if !rec.Completed {
		t.Fatal("experiment did not complete")
	}
	if rec.AnalysisError != "" {
		t.Fatalf("experiment discarded: %s", rec.AnalysisError)
	}
	if !rec.Accepted {
		t.Error("experiment not accepted")
	}
	if len(stamps) == 0 {
		t.Error("no synchronization stamps returned")
	}
	var beta *timeline.Local
	for _, l := range locals {
		if l.Owner == "beta" {
			beta = l
		}
	}
	if beta == nil {
		t.Fatalf("beta timeline missing from %d collected locals", len(locals))
	}
	doc, err := timeline.EncodeString(beta)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) <= transport.MaxFrame {
		t.Fatalf("beta timeline is %d bytes; the test needs it beyond the %d-byte frame budget", len(doc), transport.MaxFrame)
	}
	got := 0
	for _, e := range beta.Entries {
		if e.Kind == timeline.Note && strings.HasPrefix(e.Text, "padding ") {
			got++
		}
	}
	if got != notes {
		t.Errorf("reassembled beta timeline carries %d padding notes, want %d", got, notes)
	}
}
