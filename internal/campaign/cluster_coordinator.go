package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/timeline"
)

// The coordinator member is the clustered testbed: the pipeline drives it
// exactly as it drives a worker's private runtime, and each phase becomes
// a re-broadcast instruction plus the wait for its effect.

func (m *Member) runtime() *core.Runtime { return m.rt }
func (m *Member) reference() string      { return m.ref }

// reset is the reset barrier: every member on a fresh testbed and the new
// epoch before any traffic flows. The reset frame carries the trace
// context: the point name members label their lanes with and whether a
// trace will be pulled for this experiment.
func (m *Member) reset(point string, index int, traced bool) error {
	m.align = make(map[string]memberAlign, len(m.tr.Topology().PeerNames()))
	m.rt.ResetExperiment()
	m.tr.SetEpoch(uint64(index) + 1)
	msg := m.hello(index)
	msg.Point, msg.TraceOn = point, traced
	return m.barrier(msg)
}

// barrier broadcasts one reset frame until every member has acknowledged
// it, and fails on the first member (in name order) that checkPeer
// refuses. Passing it proves every member is up, listening, and running
// this study.
func (m *Member) barrier(msg clusterMsg) error {
	acks, err := m.gather(opReset, msg, opResetOK, m.tr.Topology().PeerNames(), clusterAckTimeout, nil)
	if err != nil {
		return fmt.Errorf("reset barrier: %w", err)
	}
	for _, peer := range sortedKeys(acks) {
		if err := m.checkPeer(acks[peer][0]); err != nil {
			return fmt.Errorf("reset barrier: %w", err)
		}
	}
	m.barriered = true
	return nil
}

// execute starts the experiment everywhere (idempotent; re-broadcast rides
// out loss), waits for every member's local completion and our own, then
// seals everywhere and collects the result frames. Our own runtime seals
// first so no straggler restarts into a finished experiment.
func (m *Member) execute(index int) (executed, error) {
	peers := m.tr.Topology().PeerNames()
	if err := m.startLocal(); err != nil {
		return executed{}, err
	}
	timeout := studyTimeout(m.st)
	ownDone := make(chan bool, 1)
	go func() { ownDone <- m.rt.Wait(timeout) }()

	run := executed{completed: true}
	dones, err := m.gather(opStart, clusterMsg{Index: index}, opDone, peers, timeout+clusterAckTimeout, ownDone)
	if err != nil {
		run.completed = false // hung somewhere: abort, discard (§3.5.1)
	}
	for _, d := range dones {
		if !d[0].Completed {
			run.completed = false
		}
	}
	m.rt.SealExperiment()
	results, err := m.gather(opSeal, clusterMsg{Index: index}, opResult, peers, clusterAckTimeout, nil)
	if err != nil {
		return executed{}, err
	}

	run.locals = snapshotTimelines(m.rt.Store().All())
	run.outcomes = m.rt.Outcomes()
	for _, peer := range sortedKeys(results) {
		frames := results[peer]
		for _, f := range frames {
			for k, v := range f.Outcomes {
				run.outcomes[k] = v
			}
		}
		run.lost = append(run.lost, frames[0].Dropped...)
		docs, err := joinDocs(frames)
		if err != nil {
			return executed{}, fmt.Errorf("peer %s results: %w", peer, err)
		}
		for _, doc := range docs {
			if doc == "" {
				continue // the placeholder frame of a peer with no timelines
			}
			tl, err := timeline.DecodeString(doc)
			if err != nil {
				return executed{}, fmt.Errorf("decoding peer %s timeline: %w", peer, err)
			}
			run.locals = append(run.locals, tl)
		}
	}
	sort.Slice(run.locals, func(i, j int) bool { return run.locals[i].Owner < run.locals[j].Owner })
	sort.Strings(run.lost)
	return run, nil
}

// flushMembers runs one reset barrier at the given index without running
// an experiment: every member acknowledges (resetting idempotently if it
// was behind), proving it is up and listening. A study that executed
// nothing needs it — otherwise stopCluster's five best-effort broadcasts
// could all fire before a slow-starting member process binds its socket,
// stranding it in Serve forever. (A normal run gets this guarantee from
// the first experiment's reset barrier.) Failure is logged, not fatal:
// members that are genuinely gone must not wedge a resume that needs
// nothing from them.
func (m *Member) flushMembers(index int) {
	if len(m.tr.Topology().PeerNames()) == 0 {
		return
	}
	if err := m.barrier(m.hello(index)); err != nil {
		m.rt.Logf("campaign: cluster %s: resume flush barrier: %v", m.peer, err)
	}
}

// ensureJournal opens the member's own journal from the campaign's
// Checkpoint when no binding was handed down by an in-process engine —
// the stand-alone coordinator path (cmd/lokid). It returns the journal it
// opened, which the caller closes, or nil when nothing was opened here.
func (m *Member) ensureJournal() (*journal, error) {
	if m.sj != nil || m.c.Checkpoint == nil {
		return nil, nil
	}
	j, err := openCampaignJournal(m.c)
	if err != nil {
		return nil, err
	}
	m.sj = j.study(m.c, m.st, m.st.Name)
	return j, nil
}

// RunStudy drives the whole study from the coordinator member, returning
// records identical in shape to the in-process engine's. Journaled
// experiments are skipped (the members never see a reset for them); fresh
// records are journaled as their analysis completes, so a crashed
// coordinator resumes at the first missing experiment. With one, the study
// is run as RunSingle runs it — cmd/lokid's mode: a single experiment whose
// record keeps its local timelines and stamps.
//
// Around the pipeline, which gets this member as its testbed, RunStudy
// ends the study cluster-wide: after a successful run a flush barrier if no
// experiment executed (all were journaled) and the metrics pull that folds
// every member's registry into ours, and on every path the stop broadcast.
// When ctx is cancelled the member protocol is quit (waits unblock
// immediately, like a SIGINT drain), no further experiments start, and
// ctx.Err() is returned, exactly as the in-process pool does.
func (m *Member) RunStudy(ctx context.Context, one bool) (_ *StudyResult, err error) {
	c := m.c
	if one {
		c = single(c)
	}
	stopWatch := m.quitOnCancel(ctx)
	defer stopWatch()
	j, err := m.ensureJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	sr, err := runStudy(ctx, c, m.st, m.sj, m.peer, 1, func() (testbed, func(), error) { return m, func() {}, nil })
	if err == nil {
		n := experimentCount(c, m.st)
		if !m.barriered {
			m.flushMembers(n)
		}
		m.pullMemberMetrics(n)
	}
	m.stopCluster()
	if errors.Is(err, errMemberQuit) && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return sr, err
}
