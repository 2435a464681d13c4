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
	frames := resultFrames(logf, 4, []*timeline.Local{big, small, unencodable}, outcomes)

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
		if wire, err := transport.EncodePayload(f); err != nil || len(wire) > transport.MaxFrame {
			t.Errorf("frame %d encodes to %d bytes, exceeding the %d-byte limit", i, len(wire), transport.MaxFrame)
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

// noisyStepCampaign is stepCampaign with beta's application additionally
// recording enough notes that its local timeline encodes far beyond one
// transport frame.
func noisyStepCampaign(t testing.TB, notes int) *Campaign {
	t.Helper()
	c := stepCampaign(t, 1, 1)
	st := c.Studies[0]
	pad := strings.Repeat("x", 48)
	for i := range st.Nodes {
		if st.Nodes[i].Nickname != "beta" {
			continue
		}
		st.Nodes[i].App = probe.NewInstrumented(func(h *core.Handle) {
			for k := 0; k < notes; k++ {
				h.Note(fmt.Sprintf("padding %06d %s", k, pad))
			}
			h.NotifyEvent("S1")
			h.NotifyEvent("GO")
			h.NotifyEvent("GO2")
		}).On("betafault", probe.NoteFault())
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
	rec, err := RunSingle(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
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
