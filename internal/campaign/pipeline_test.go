package campaign

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/obs"
)

// fakeTestbed records the order the pipeline drives it in. Each phase
// costs a fixed slice of virtual time, so span widths are exact.
type fakeTestbed struct {
	rt    *core.Runtime
	calls []string
}

func (f *fakeTestbed) step(name string, d time.Duration) {
	f.calls = append(f.calls, name)
	f.rt.Clock().Sleep(d)
}

func (f *fakeTestbed) runtime() *core.Runtime { return f.rt }
func (f *fakeTestbed) reference() string      { return "h1" }

func (f *fakeTestbed) reset(string, int, bool) error {
	f.step("reset", time.Millisecond)
	return nil
}

func (f *fakeTestbed) sync() ([]clocksync.StampedMessage, error) {
	f.step("sync", 2*time.Millisecond)
	return nil, nil
}

func (f *fakeTestbed) execute(int) (executed, error) {
	f.step("execute", 5*time.Millisecond)
	return executed{completed: true}, nil
}

func (f *fakeTestbed) mergeLanes(int, *obs.Trace) { f.calls = append(f.calls, "mergeLanes") }

// TestRuntimePhaseScaffoldingOnce drives a fake testbed through
// runRuntimePhase: the phase order, the four phase spans, and the
// reset/sync×2/run observations are the pipeline's — emitted exactly once
// per experiment whatever testbed sits under it.
func TestRuntimePhaseScaffoldingOnce(t *testing.T) {
	v := clock.NewVirtual()
	rt := core.New(core.Config{Clock: v, Source: v.Source()})
	defer rt.Shutdown()
	tb := &fakeTestbed{rt: rt}
	c := &Campaign{Obs: &obs.Sink{TraceDir: t.TempDir(), Metrics: obs.NewRegistry()}}

	raw, err := runRuntimePhase(c, &Study{Name: "s"}, tb, "s", 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"reset", "sync", "execute", "sync", "mergeLanes"}; !reflect.DeepEqual(tb.calls, want) {
		t.Errorf("phase order = %v, want %v", tb.calls, want)
	}
	if raw.index != 3 || !raw.completed || raw.ref != "h1" || raw.syncError != "" {
		t.Errorf("raw experiment = %+v", raw)
	}

	type span struct {
		name  string
		width time.Duration
	}
	var got []span
	for _, s := range raw.trace.Spans() {
		got = append(got, span{s.Name, time.Duration(s.End - s.Start)})
	}
	want := []span{
		{"reset", time.Millisecond},
		{"clock-sync-pre", 2 * time.Millisecond},
		{"experiment", 5 * time.Millisecond},
		{"clock-sync-post", 2 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phase spans = %v, want %v", got, want)
	}
	if end := raw.trace.Spans()[3].End; raw.traceEnd.UnixNano() != end {
		t.Errorf("traceEnd = %d, want the post-sync span's end %d", raw.traceEnd.UnixNano(), end)
	}

	cm := c.Obs.CampaignMetrics()
	for _, h := range []struct {
		name  string
		hist  *obs.Histogram
		count uint64
		sum   float64
	}{
		{"ResetSeconds", cm.ResetSeconds, 1, 0.001},
		{"SyncSeconds", cm.SyncSeconds, 2, 0.004},
		{"RunSeconds", cm.RunSeconds, 1, 0.005},
	} {
		if h.hist.Count() != h.count || h.hist.Sum() != h.sum {
			t.Errorf("%s: %d observations summing %v, want %d summing %v",
				h.name, h.hist.Count(), h.hist.Sum(), h.count, h.sum)
		}
	}
}
