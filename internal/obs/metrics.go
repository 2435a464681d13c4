package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Now is the sanctioned wall-clock read for latency measurement. Engine
// code is wall-clock free by CI guardrail; when it needs a real duration
// for a histogram (journal fsync cost, cluster RTT) it goes through
// obs.Now/ObserveSince, keeping every wall-clock read in this one
// allowlisted package. These readings feed metrics only — never traces.
func Now() time.Time { return time.Now() }

// Registry is a small dependency-free metrics registry. Metric names may
// carry a Prometheus label suffix (`name{k="v"}`); series with the same
// base name are grouped into one family on output. Registration is
// idempotent: asking for an existing series returns it.
type Registry struct {
	mu      sync.Mutex
	series  map[string]interface{} // full series name -> *Counter | *Gauge | *Histogram
	help    map[string]string      // base name -> help text
	kind    map[string]string      // base name -> "counter" | "gauge" | "histogram"
	imports map[string]Snapshot    // member name -> last imported remote snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]interface{}),
		help:   make(map[string]string),
		kind:   make(map[string]string),
	}
}

// ImportSnapshot stores a remote member's registry snapshot. Imported
// series are not merged into local values; they are rendered alongside
// them by WriteProm and Snapshot with a `member="<name>"` label spliced
// into each series, so the coordinator's /metrics endpoint and
// metrics.json expose one fleet-wide surface. Re-importing for the same
// member replaces the previous snapshot. Nil-receiver safe.
func (r *Registry) ImportSnapshot(member string, snap Snapshot) {
	if r == nil || member == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.imports == nil {
		r.imports = make(map[string]Snapshot)
	}
	r.imports[member] = snap
}

// memberSeries rebuilds an imported series name with the member label:
// (`a{k="v"}`, "beta") -> `a{k="v",member="beta"}`. Series that already
// carry a member label (a shared loopback registry importing itself)
// return ok=false and are skipped — splicing a second member label would
// produce an invalid duplicate.
func memberSeries(name, member string) (string, bool) {
	base, labels := baseName(name)
	if strings.Contains(labels, `member="`) {
		return "", false
	}
	return base + mergeLabels(labels, fmt.Sprintf("member=%q", member)), true
}

// Counter is a monotonically increasing series. Nil-receiver safe.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable series. Nil-receiver safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram bounds, in seconds: 1µs to ~16s in
// powers of four, wide enough for both virtual-time fsyncs and wall-clock
// socket studies.
var DefBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
	1, 4, 16,
}

// Histogram is a fixed-bucket latency distribution in seconds.
// Observation is lock-free (atomics only). Nil-receiver safe.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value in seconds.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the wall-clock time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// baseName splits a series name into its base and label part:
// `a{k="v"}` -> `a`, `{k="v"}`.
func baseName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

func (r *Registry) register(name, help, kind string, mk func() interface{}) interface{} {
	base, _ := baseName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.series[name]; ok {
		return m
	}
	if k, ok := r.kind[base]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", base, kind, k))
	}
	r.kind[base] = kind
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
	m := mk()
	r.series[name] = m
	return m
}

// Counter returns the named counter series, registering it on first use.
// Nil-receiver safe (returns nil, and nil counters discard).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, "counter", func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge returns the named gauge series, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, "gauge", func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns the named histogram series, registering it on first
// use. A nil bounds slice selects DefBuckets; bounds are fixed at first
// registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, "histogram", func() interface{} { return newHistogram(bounds) }).(*Histogram)
}

// fmtFloat renders a float the way Prometheus clients do: integral values
// without exponent noise, +Inf spelled out.
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an extra label into a series' label part:
// (`{k="v"}`, `le="1"`) -> `{k="v",le="1"}`.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// promLE parses a bucket upper-bound key ("+Inf" included) for sorting.
func promLE(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// sortedBucketKeys orders a HistSnapshot bucket map by bound, +Inf last.
func sortedBucketKeys(b map[string]uint64) []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return promLE(keys[i]) < promLE(keys[j]) })
	return keys
}

// Imported series values carried through WriteProm's entry list.
type importedCounter uint64
type importedGauge int64

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4), families and series in sorted order. Imported member
// snapshots render as additional member-labeled series of the same
// families.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type entry struct {
		name string
		m    interface{}
	}
	entries := make([]entry, 0, len(r.series))
	for name, m := range r.series {
		entries = append(entries, entry{name, m})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	kind := make(map[string]string, len(r.kind))
	for k, v := range r.kind {
		kind[k] = v
	}
	for member, snap := range r.imports {
		for name, v := range snap.Counters {
			if full, ok := memberSeries(name, member); ok {
				entries = append(entries, entry{full, importedCounter(v)})
				base, _ := baseName(name)
				if _, ok := kind[base]; !ok {
					kind[base] = "counter"
				}
			}
		}
		for name, v := range snap.Gauges {
			if full, ok := memberSeries(name, member); ok {
				entries = append(entries, entry{full, importedGauge(v)})
				base, _ := baseName(name)
				if _, ok := kind[base]; !ok {
					kind[base] = "gauge"
				}
			}
		}
		for name, v := range snap.Histograms {
			if full, ok := memberSeries(name, member); ok {
				entries = append(entries, entry{full, v})
				base, _ := baseName(name)
				if _, ok := kind[base]; !ok {
					kind[base] = "histogram"
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	r.mu.Unlock()

	seen := make(map[string]bool)
	for _, e := range entries {
		base, labels := baseName(e.name)
		if !seen[base] {
			seen[base] = true
			if h := help[base]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind[base]); err != nil {
				return err
			}
		}
		switch m := e.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, m.Value()); err != nil {
				return err
			}
		case *Histogram:
			var cum uint64
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				le := mergeLabels(labels, fmt.Sprintf("le=%q", fmtFloat(b)))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, cum); err != nil {
					return err
				}
			}
			cum += m.counts[len(m.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabels(labels, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, fmtFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, m.Count()); err != nil {
				return err
			}
		case importedCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, uint64(m)); err != nil {
				return err
			}
		case importedGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, int64(m)); err != nil {
				return err
			}
		case HistSnapshot:
			for _, k := range sortedBucketKeys(m.Buckets) {
				le := mergeLabels(labels, fmt.Sprintf("le=%q", k))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, m.Buckets[k]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, fmtFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, m.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot is the JSON shape WriteJSON emits (the lokirun metrics.json
// artifact). Map keys are series names; Marshal sorts them, so snapshots
// of equal state are byte-identical.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot summarizes one histogram series.
type HistSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"` // le -> cumulative count
}

// LocalSnapshot captures the values of locally registered series only,
// excluding imported member snapshots. This is what a cluster member
// ships to its coordinator: importing must never re-export series that
// were themselves imported.
func (r *Registry) LocalSnapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.localSnapshotLocked(&snap)
	return snap
}

func (r *Registry) localSnapshotLocked(snap *Snapshot) {
	for name, m := range r.series {
		switch m := m.(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case *Histogram:
			hs := HistSnapshot{Count: m.Count(), Sum: m.Sum(), Buckets: map[string]uint64{}}
			var cum uint64
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				hs.Buckets[fmtFloat(b)] = cum
			}
			cum += m.counts[len(m.bounds)].Load()
			hs.Buckets["+Inf"] = cum
			snap.Histograms[name] = hs
		}
	}
}

// Snapshot captures the registry's current values, imported member
// snapshots included (member-labeled, like WriteProm renders them).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.localSnapshotLocked(&snap)
	for member, imp := range r.imports {
		for name, v := range imp.Counters {
			if full, ok := memberSeries(name, member); ok {
				snap.Counters[full] = v
			}
		}
		for name, v := range imp.Gauges {
			if full, ok := memberSeries(name, member); ok {
				snap.Gauges[full] = v
			}
		}
		for name, v := range imp.Histograms {
			if full, ok := memberSeries(name, member); ok {
				snap.Histograms[full] = v
			}
		}
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Handler serves the registry in Prometheus text format — what
// lokirun -metrics mounts at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
