package campaign

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
)

// Fleet observability pulls: best-effort, never failing an experiment. A
// lane or snapshot that cannot be fetched or decoded is logged and
// skipped.

// pullDocs gathers every peer's chunked answer to a pull op and
// reassembles each into its one document, indexed like m.peers.
func (m *Member) pullDocs(index int, op, respOp string) ([]string, error) {
	results, err := m.gather(op, clusterMsg{Index: index}, respOp, clusterAckTimeout, true)
	if err != nil {
		return nil, err
	}
	docs := make([]string, len(results))
	for i, frames := range results {
		d, err := joinDocs(nil, frames)
		if err != nil {
			return nil, err
		}
		docs[i] = d[0]
	}
	return docs, nil
}

// mergeLanes pulls every member's trace lane for the sealed experiment
// and merges it into tr, rebasing each lane by the negated offset estimate
// from this experiment's sync rounds.
func (m *Member) mergeLanes(index int, tr *obs.Trace) {
	if tr == nil {
		return
	}
	docs, err := m.pullDocs(index, opTrace, opTraceRes)
	if err != nil {
		m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: collecting member traces: %v", m.peer, err)
		return
	}
	for i, peer := range m.peers {
		mt, err := obs.DecodeTraceString(docs[i])
		if err != nil {
			m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: decoding %s trace: %v", m.peer, peer, err)
			continue
		}
		if mt == nil {
			continue // the member has no trace buffer (it warned locally)
		}
		var offset time.Duration
		if a, ok := m.align[peer]; ok && a.ok {
			offset = -time.Duration(a.offsetNS)
		}
		tr.Merge(peer, mt, offset)
		if mm := m.c.Obs.MemberMetrics(peer); mm != nil {
			spans, events := mt.Counts()
			mm.TraceSpans.Add(uint64(spans))
			mm.TraceEvents.Add(uint64(events))
		}
	}
}

// pullMemberMetrics fetches every member's registry snapshot and imports
// it into the coordinator's registry under a member label, so the
// campaign metrics.json and /metrics expose one fleet surface. Called at
// study end.
func (m *Member) pullMemberMetrics(index int) {
	if m.c.Obs == nil || m.c.Obs.Metrics == nil {
		return
	}
	docs, err := m.pullDocs(index, opMetrics, opMetricsRes)
	if err != nil {
		m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: pulling member metrics: %v", m.peer, err)
		return
	}
	for i, peer := range m.peers {
		if docs[i] == "" {
			continue // the member runs without a registry
		}
		var snap obs.Snapshot
		if err := json.Unmarshal([]byte(docs[i]), &snap); err != nil {
			m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: decoding %s metrics: %v", m.peer, peer, err)
			continue
		}
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
			continue
		}
		m.c.Obs.Metrics.ImportSnapshot(peer, snap)
	}
}
