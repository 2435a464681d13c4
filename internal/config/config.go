// Package config is the declarative campaign-file layer: one JSON schema
// describing a full Loki campaign — virtual hosts, studies, a scenario
// matrix, transport, checkpointing, cluster topology, and measures — so an
// experiment is a reviewable artifact (checked in, diffed, fingerprinted)
// rather than Go wiring. The package translates: Load and Fingerprint
// handle the file, and Build translates it into the internal/campaign
// engine types, checking only what the file alone can show and parsing
// each fault line once. The rules about the campaign the engines run are
// campaign.Validate's alone; Validate is Build followed by
// campaign.Validate and BuildMeasures. The loki.Session entry point and
// the command-line drivers consume both.
//
// Durations are JSON strings in Go syntax ("150ms", "25us"); times in the
// clock-error fields are nanosecond integers, matching vclock.Ticks.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"
)

// Duration is a time.Duration that serializes as a Go duration string
// ("150ms"), keeping campaign files human-readable and -reviewable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string or a bare nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("config: duration must be a string like \"150ms\": got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std returns the plain time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Campaign is the root of a campaign file: everything the engines need to
// run the full pipeline, in one schema.
type Campaign struct {
	Name string `json:"name"`
	// Seed drives derived host clocks and is the default study seed.
	Seed int64 `json:"seed,omitempty"`
	// Hosts lists the virtual hosts with their hidden clock errors. When
	// empty, one host per placement host is derived from Seed (offset
	// within ±10 ms, drift within ±100 ppm), the first keeping a clean
	// reference clock.
	Hosts []Host `json:"hosts,omitempty"`
	// Workers sizes the concurrent experiment executor pool (0 =
	// GOMAXPROCS; negative is rejected by Validate). Under virtual time a
	// matrix whose points each get one worker (Workers at most the number
	// of points) journals byte for byte the same at any such count, each
	// point on a testbed rewound to a fresh one's state; a study, or a
	// point given several workers, does so only at Workers 1: a worker's
	// virtual clock keeps running across its experiments.
	Workers int `json:"workers,omitempty"`
	// Transport is the default study transport: "" or "inproc" (one
	// runtime, in-memory bus), "udp" or "tcp" (one runtime per host over
	// loopback sockets). A study's own Transport overrides it.
	Transport string `json:"transport,omitempty"`
	// VirtualTime runs every study on a simulated clock: all waits in the
	// engine and the applications complete instantly in wall-clock terms,
	// while the recorded timestamps keep the configured host-clock
	// geometry. Requires the inproc transport and no cluster.
	VirtualTime bool `json:"virtual_time,omitempty"`
	// Sync tunes the clock-synchronization mini-phases.
	Sync *Sync `json:"sync,omitempty"`
	// Checkpoint enables the per-experiment journal under Dir.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	// Cluster is the multi-process topology for lokirun -name peers; ignored
	// by the in-process engines.
	Cluster *Cluster `json:"cluster,omitempty"`
	// Studies runs each study in order. Mutually exclusive with Matrix.
	Studies []Study `json:"studies,omitempty"`
	// Matrix fans one study template out into
	// {scenarios x latencies x seeds} points.
	Matrix *Matrix `json:"matrix,omitempty"`
	// Measures are declarative study measures applied to accepted global
	// timelines (predicate / observation / selector triples).
	Measures []Measure `json:"measures,omitempty"`
}

// Host is one virtual host and its hidden clock error.
type Host struct {
	Name string `json:"name"`
	// OffsetNs is the clock's value at the time base's epoch, nanoseconds.
	OffsetNs int64 `json:"offset_ns,omitempty"`
	// DriftPPM is the rate error in parts per million.
	DriftPPM float64 `json:"drift_ppm,omitempty"`
	// GranularityNs floors readings to a multiple of itself.
	GranularityNs int64 `json:"granularity_ns,omitempty"`
	// JitterNs adds uniform noise in [0, JitterNs) per reading.
	JitterNs int64 `json:"jitter_ns,omitempty"`
	// JitterSeed seeds the jitter generator.
	JitterSeed int64 `json:"jitter_seed,omitempty"`
}

// Sync mirrors campaign.SyncConfig.
type Sync struct {
	Messages int      `json:"messages,omitempty"`
	Spacing  Duration `json:"spacing,omitempty"`
	Transit  Duration `json:"transit,omitempty"`
}

// Checkpoint mirrors campaign.Checkpoint.
type Checkpoint struct {
	Dir    string `json:"dir"`
	Resume bool   `json:"resume,omitempty"`
}

// Cluster is the multi-process topology: every peer process loads the same
// campaign file and identifies itself by peer name (lokirun -name).
type Cluster struct {
	// Kind is the socket transport: "udp" or "tcp".
	Kind string `json:"kind"`
	// Peers maps peer name to dial address.
	Peers map[string]string `json:"peers"`
	// Owners maps virtual host to owning peer.
	Owners map[string]string `json:"owners"`
}

// Node is one node-file entry: a machine nickname plus the host it
// auto-starts on (empty: registered but not auto-started, §3.5.1).
type Node struct {
	Name string `json:"name"`
	Host string `json:"host,omitempty"`
}

// Study is one study: the built-in application, its placement, and the
// machine-prefixed fault specification lines.
type Study struct {
	Name string `json:"name"`
	// App names a registered application ("" means election). The zoo
	// built-ins — election, replica, quorum — are always registered; user
	// applications become addressable by registering an app.Application
	// with the public repro/app registry and linking their package into
	// the driver.
	App string `json:"app,omitempty"`
	// Nodes is the node file: every machine, with hosts for auto-started
	// ones.
	Nodes []Node `json:"nodes"`
	// Faults holds "<machine> <name> <expr> <once|always> [action(args)
	// [for]]" lines (§3.5.5 prefixed with the owning machine). Faults
	// without an action call crash the machine after Dormancy; faults
	// naming a built-in chaos action execute that action.
	Faults []string `json:"faults,omitempty"`
	// Experiments is how many instances to run. Required and positive:
	// the engines reject zero or negative counts.
	Experiments int `json:"experiments"`
	// Seed drives application randomness and chaos actions (0: campaign
	// seed).
	Seed int64 `json:"seed,omitempty"`
	// RunFor bounds each node's life (default 150ms).
	RunFor Duration `json:"runfor,omitempty"`
	// Dormancy is the fault-to-crash dormancy of injected crash faults
	// (0: immediate crash).
	Dormancy Duration `json:"dormancy,omitempty"`
	// Timeout aborts hung experiments (default 10s).
	Timeout Duration `json:"timeout,omitempty"`
	// Restart enables the crash-restart supervisor (§3.6.3).
	Restart bool `json:"restart,omitempty"`
	// Transport overrides the campaign transport for this study.
	Transport string `json:"transport,omitempty"`
}

// Scenario is one named chaos configuration: fault lines overlaid onto
// every study expanded for it. No faults is the baseline.
type Scenario struct {
	Name   string   `json:"name"`
	Faults []string `json:"faults,omitempty"`
}

// Latency names one notification-latency profile (§3.4.2).
type Latency struct {
	Name   string   `json:"name"`
	Local  Duration `json:"local,omitempty"`
	Remote Duration `json:"remote,omitempty"`
}

// Matrix fans the study template out into
// {scenarios x latencies x seeds} points.
type Matrix struct {
	Name      string     `json:"name"`
	Scenarios []Scenario `json:"scenarios,omitempty"`
	Latencies []Latency  `json:"latencies,omitempty"`
	Seeds     []int64    `json:"seeds,omitempty"`
	// Study is the template every point shares; a testbed running a point
	// builds its applications with the point's seed.
	Study *Study `json:"study"`
}

// MeasureTriple is one (selector, predicate, observation) triple of a
// study measure (thesis ch. 4).
type MeasureTriple struct {
	// Select filters which experiments contribute: "default" (or empty)
	// takes all, or a comparison against the previous triple's value like
	// ">0" (measure.ParseSelector syntax).
	Select string `json:"select,omitempty"`
	// Predicate is a ch.4 predicate such as "(green, CRASH)".
	Predicate string `json:"predicate"`
	// Observation is an observation function such as
	// "total_duration(T, START_EXP, END_EXP)".
	Observation string `json:"observation"`
}

// Measure is one named study measure.
type Measure struct {
	Name    string          `json:"name"`
	Triples []MeasureTriple `json:"triples"`
}

// Load decodes a campaign file. Unknown fields are rejected — a typoed
// key must not silently become a default.
func Load(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	// Anything after the document is garbage, not a second campaign.
	if dec.More() {
		return nil, fmt.Errorf("config: trailing data after campaign document")
	}
	return &c, nil
}

// LoadFile loads and validates a campaign file from disk.
func LoadFile(path string) (*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	if err := Validate(c); err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}

// Parse decodes a campaign document from memory.
func Parse(data []byte) (*Campaign, error) { return Load(bytes.NewReader(data)) }

// Encode renders the campaign as indented JSON, the checked-in form.
// Load(Encode(c)) round-trips.
func Encode(c *Campaign) ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return append(b, '\n'), nil
}

// Fingerprint hashes the campaign's canonical encoding. Because decoding
// normalizes JSON field order and formatting, files that differ only in
// field ordering or whitespace share a fingerprint; any semantic change
// produces a new one.
func Fingerprint(c *Campaign) string {
	// json.Marshal is deterministic: struct fields in declaration order,
	// map keys sorted.
	b, err := json.Marshal(c)
	if err != nil {
		// Campaign contains only marshalable fields; keep the signature
		// error-free for callers that fingerprint loaded (hence
		// marshalable) configs.
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
